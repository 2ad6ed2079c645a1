// Command perfbench is the sniffer-run benchmark: it drives a whole
// pseudo-honeypot deployment (world → hourly rotation → match → extract →
// label → train → classify → PGE) the way an operator does and reports the
// end-to-end figures, or, with --trace 1, the time and work of every layer
// measured from a separate traced run. Run it from the repository root:
//
//	bash perfbench/run.sh --workload day-6k --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh --smoke
//	bash perfbench/run.sh compare parent.jsonl change.jsonl
//
// The last line of standard output is the result as one JSON object. See
// README.md for the workloads and the metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// minSetups is the least number of set-ups a run times; setup_s is their
// median.
const minSetups = 5

//go:embed golden.json
var goldenJSON []byte

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp identifies where and on what a result was measured.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func main() {
	workloadName := flag.String("workload", "", "workload name: day-6k, wide-30k or durable-24h")
	seed := flag.Int64("seed", 1, "workload seed")
	secs := flag.Int("seconds", 40, "with --trace 0, end-to-end repetitions start while one more fits in this many seconds (--trace 1 runs one)")
	traceMode := flag.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics")
	smokeMode := flag.Bool("smoke", false, "run every workload at toy size and check the emitted metric names against BENCHMARK.json")
	flag.Parse()

	if args := flag.Args(); len(args) > 0 {
		if len(args) != 3 || args[0] != "compare" {
			fmt.Fprintln(os.Stderr, "usage: perfbench [flags] | perfbench compare BASE.jsonl NEW.jsonl")
			os.Exit(2)
		}
		if err := compare("BENCHMARK.json", args[1], args[2], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: compare:", err)
			os.Exit(1)
		}
		return
	}
	if *smokeMode {
		if err := smoke("BENCHMARK.json", scratchDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: smoke:", err)
			os.Exit(1)
		}
		fmt.Println("perfbench: smoke ok")
		return
	}
	w, err := lookupWorkload(*workloadName)
	if err == nil && *traceMode != 0 && *traceMode != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, not %d", *traceMode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	st := stamp{
		Workload: w.name, Seed: *seed, Seconds: *secs, Trace: *traceMode,
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: os.Getenv("PERFBENCH_COMMIT"),
	}
	if st.Commit == "" {
		st.Commit = "unknown"
	}
	golden, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var want *fingerprint
	if fp, ok := golden[w.name]; ok && *seed == goldenSeed {
		want = &fp
	}
	res, err := measure(w, *seed, time.Duration(*secs)*time.Second, *traceMode == 1, want, scratchDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]stamp{"stamp": st}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
}

// goldenSeed is the seed golden.json pins the fingerprints at.
const goldenSeed = 1

func loadGolden() (map[string]fingerprint, error) {
	var g map[string]fingerprint
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// scratchDir is where runs put their durable stores: inside the build
// directory of the tree the benchmark runs from.
const scratchDir = ".bench_build/scratch"

// measure runs the workload and checks its outputs. With traced false it
// repeats the end-to-end run while budget allows (at least once) and
// returns the end-to-end metrics; with traced true it runs the end-to-end
// run once and then the traced run, and returns the per-layer metrics.
// want, when set, is the committed fingerprint every end-to-end run must
// reproduce.
func measure(w workload, seed int64, budget time.Duration, traced bool, want *fingerprint, scratch string) (result, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return result{}, err
	}
	var reps []*e2eRep
	var setups []time.Duration
	// A repetition starts only when one as long as the last still fits in
	// the budget, so a run ends near --seconds rather than up to one
	// repetition past it.
	start := time.Now()
	var last time.Duration
	for len(reps) == 0 || !traced && time.Since(start)+last <= budget {
		t := time.Now()
		rep, err := runE2E(w, seed, scratch)
		if err != nil {
			return result{}, err
		}
		reps = append(reps, rep)
		setups = append(setups, rep.setup)
		fmt.Fprintf(os.Stderr, "perfbench: repetition %d: setup %.3fs run %.3fs hour_p50 %.1fms detect_p50 %.3fs heap %.1fMB\n",
			len(reps), rep.setup.Seconds(), rep.run.Seconds(), 1000*median(seconds(rep.hours)),
			median(seconds(rep.detects)), rep.heapMB)
		runtime.GC()
		last = time.Since(t)
	}

	// Output checks: no failed call, every repetition reproduces the
	// first (and the committed fingerprint), and the traced run agrees
	// and reconciles.
	var ops opCount
	for i, rep := range reps {
		ops.attempted += rep.ops.attempted
		ops.failed += rep.ops.failed
		name := fmt.Sprintf("repetition %d", i+1)
		if i > 0 {
			ops.record(checkFingerprint(name+" vs repetition 1", rep.fp, reps[0].fp))
		}
		if want != nil {
			ops.record(checkFingerprint(name+" vs golden.json", rep.fp, *want))
		}
	}
	res := result{}
	if traced {
		dir, err := os.MkdirTemp(scratch, "traced-")
		if err != nil {
			return result{}, err
		}
		defer os.RemoveAll(dir)
		tr, err := runTraced(w, seed, dir)
		if err != nil {
			return result{}, err
		}
		ops.attempted += tr.ops.attempted
		ops.failed += tr.ops.failed
		ops.record(checkFingerprint("repetition 1 vs traced run", reps[0].fp, tr.fp))
		share := tr.unattributed().Seconds() / tr.wall.Seconds()
		ops.record(math.Abs(share) <= reconcileTolerance)
		if math.Abs(share) > reconcileTolerance {
			fmt.Fprintf(os.Stderr, "perfbench: reconciliation: %.1f%% of the traced wall time is unattributed (tolerance %.0f%%)\n",
				100*share, 100*reconcileTolerance)
		}
		res.Metrics = layerMetrics(tr, reps[0])
	} else {
		for len(setups) < minSetups {
			d, err := measureSetup(w, seed, scratch)
			if err != nil {
				return result{}, err
			}
			setups = append(setups, d)
		}
		res.Metrics = e2eMetrics(reps, setups)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d repetition(s), fingerprint %s, error_ratio %g\n",
		w.name, seed, len(reps), reps[0].fp, ops.errorRatio())
	res.Correct, res.Attempted, res.Failed = ops.failed == 0, ops.attempted, ops.failed
	return res, nil
}

// check reports a failed operation on stderr and whether it succeeded.
func check(op string, err error) bool {
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", op, err)
	}
	return err == nil
}

func checkFingerprint(what string, got, want fingerprint) bool {
	if got.equal(want) {
		return true
	}
	fmt.Fprintf(os.Stderr, "perfbench: fingerprint mismatch, %s:\n got  %s\n want %s\n", what, got, want)
	return false
}

// e2eMetrics are the end-to-end figures. The repetitions make the same
// calls with the same inputs (same seed, same fingerprint), so a call's
// slower repetitions measure interference from the rest of the host, which
// only adds time. Every RunHours and DetectAll call is therefore taken at
// the lower quartile of its times over the repetitions, a low figure that
// one lucky sample does not set: run_s is the sum of those times,
// hour_p50_ms and detect_p50_s their medians. setup_s is the median set-up.
func e2eMetrics(reps []*e2eRep, setups []time.Duration) map[string]metric {
	var heaps []float64
	var hours, detects [][]float64
	for _, r := range reps {
		heaps = append(heaps, r.heapMB)
		hours = append(hours, seconds(r.hours))
		detects = append(detects, seconds(r.detects))
	}
	hourLow, detectLow := lowQuartiles(hours), lowQuartiles(detects)
	q := reps[0].quality // identical in every repetition: same seed
	return map[string]metric{
		"setup_s":          {median(seconds(setups)), "s"},
		"run_s":            {sum(hourLow) + sum(detectLow), "s"},
		"hour_p50_ms":      {1000 * median(hourLow), "ms"},
		"detect_p50_s":     {median(detectLow), "s"},
		"retained_heap_mb": {median(heaps), "MB"},
		"spam_precision":   {q.precision(), "ratio"},
		"spam_recall":      {q.recall(), "ratio"},
	}
}

// layerMetrics are the per-layer figures of the traced run, plus the
// streaming runtime's counts from the end-to-end run rep.
func layerMetrics(r *tracedResult, p *e2eRep) map[string]metric {
	rotations := seconds(r.rotations)
	var rotateTotal float64
	for _, d := range rotations {
		rotateTotal += d
	}
	return map[string]metric{
		"socialnet.world_gen_s":           {r.worldGen.Seconds(), "s"},
		"socialnet.engine_self_s":         {r.engineSelf.Seconds(), "s"},
		"socialnet.tweets":                {float64(r.tweets), "count"},
		"socialnet.screen_calls":          {float64(r.screenCalls), "count"},
		"socialnet.screen_s":              {r.screen.Seconds(), "s"},
		"socialnet.screen_returned":       {float64(r.screenReturned), "count"},
		"core.rotate_s":                   {rotateTotal, "s"},
		"core.rotate_p50_ms":              {1000 * median(rotations), "ms"},
		"core.rotate_screens_per_group":   {ratio(float64(r.screenCalls), float64(r.groups*len(rotations))), "ratio"},
		"core.match_s":                    {r.match.Seconds(), "s"},
		"core.match_hit_ratio":            {ratio(float64(r.captures), float64(r.tweets)), "ratio"},
		"core.pge_s":                      {r.pge.Seconds(), "s"},
		"features.extract_s":              {r.extract.Seconds(), "s"},
		"features.extract_us_per_capture": {1e6 * r.extract.Seconds() / float64(max(r.captures, 1)), "us"},
		"label.ingest_s":                  {r.labelIngest.Seconds(), "s"},
		"label.snapshot_s":                {r.labelSnapshot.Seconds(), "s"},
		"label.store_tweets":              {float64(r.labelTweets), "count"},
		"label.store_users":               {float64(r.labelUsers), "count"},
		"label.precision":                 {r.labelQuality.precision(), "ratio"},
		"label.recall":                    {r.labelQuality.recall(), "ratio"},
		"ml.train_s":                      {r.train.Seconds(), "s"},
		"ml.classify_s":                   {r.classify.Seconds(), "s"},
		"ml.train_rows":                   {float64(r.trainRows), "count"},
		"store.checkpoint_s":              {r.checkpoint.Seconds(), "s"},
		"store.ckpt_labels_mb":            {mb(uint64(r.ckptLabels)), "MB"},
		"store.ckpt_extractor_mb":         {mb(uint64(r.ckptExtractor)), "MB"},
		"store.ckpt_captures_mb":          {mb(uint64(r.ckptCaptures)), "MB"},
		"store.wal_mb":                    {mb(uint64(r.walBytes)), "MB"},
		"store.sync_s":                    {r.sync.Seconds(), "s"},
		"pipeline.backpressure_events":    {p.backpressure, "count"},
		"pipeline.batch_fill":             {ratio(p.items, p.batches), "items/batch"},
		"runtime.alloc_mb":                {r.allocMB, "MB"},
		"runtime.gc_cycles":               {float64(r.gcCycles), "count"},
		"runtime.heap_growth_mb_per_day":  {24 * slope(r.heapHours, r.heapMBs), "MB/day"},
		"trace.wall_s":                    {r.wall.Seconds(), "s"},
		"trace.unattributed_s":            {r.unattributed().Seconds(), "s"},
		"trace.overhead_ratio":            {r.runWall.Seconds() / p.run.Seconds(), "ratio"},
	}
}

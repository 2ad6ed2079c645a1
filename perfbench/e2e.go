package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	ph "github.com/pseudo-honeypot/pseudohoneypot"
)

// fingerprint is the output a run is checked by: the final DetectAll's
// counts and its ten best selectors by garner efficiency.
type fingerprint struct {
	Captures int      `json:"captures"`
	Spams    int      `json:"spams"`
	Spammers int      `json:"spammers"`
	TopPGE   []string `json:"top_pge"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("%d/%d/%d top=%q", f.Captures, f.Spams, f.Spammers, f.TopPGE)
}

func (f fingerprint) equal(g fingerprint) bool {
	if f.Captures != g.Captures || f.Spams != g.Spams || f.Spammers != g.Spammers ||
		len(f.TopPGE) != len(g.TopPGE) {
		return false
	}
	for i := range f.TopPGE {
		if f.TopPGE[i] != g.TopPGE[i] {
			return false
		}
	}
	return true
}

// topPGE names the k best selectors of a PGE ranking.
func topPGE(rows []ph.PGERow, k int) []string {
	top := make([]string, 0, k)
	for i := 0; i < k && i < len(rows); i++ {
		top = append(top, rows[i].Selector.String())
	}
	return top
}

// quality tallies detector verdicts against the simulation's generative
// spam truth.
type quality struct{ tp, fp, fn int }

func (q *quality) add(verdict, truth bool) {
	switch {
	case verdict && truth:
		q.tp++
	case verdict:
		q.fp++
	case truth:
		q.fn++
	}
}

func (q quality) precision() float64 { return ratio(float64(q.tp), float64(q.tp+q.fp)) }
func (q quality) recall() float64    { return ratio(float64(q.tp), float64(q.tp+q.fn)) }

// e2eRep is one end-to-end repetition: set-up plus the whole run, driven
// through the public API with tracing off.
type e2eRep struct {
	setup time.Duration
	// run is the time in the RunHours and DetectAll calls: the run from
	// the first RunHours call to the last DetectAll's return, less the
	// benchmark's own bookkeeping between calls.
	run     time.Duration
	hours   []time.Duration
	detects []time.Duration
	heapMB  float64
	quality quality
	fp      fingerprint
	ops     opCount
	// Streaming-runtime counts from the sniffer's metrics registry.
	backpressure, batches, items float64
}

// setUp builds the simulation and the sniffer, as an operator starts one.
func setUp(w workload, seed int64, dir string, reg *ph.MetricsRegistry) (*ph.Sniffer, error) {
	sim, err := ph.NewSimulation(w.simConfig(seed))
	if err != nil {
		return nil, fmt.Errorf("new simulation: %w", err)
	}
	sn, err := ph.NewSniffer(sim, w.snifferConfig(seed, dir, reg))
	if err != nil {
		return nil, fmt.Errorf("new sniffer: %w", err)
	}
	return sn, nil
}

// measureSetup times one set-up and tears it down again.
func measureSetup(w workload, seed int64, scratch string) (time.Duration, error) {
	dir, err := os.MkdirTemp(scratch, "setup-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	sn, err := setUp(w, seed, dir, ph.NewMetricsRegistry())
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	sn.Close()
	return d, nil
}

// runE2E runs the workload once: RunHours(1) per simulated hour and
// DetectAll every detectEvery hours. A failing RunHours or DetectAll is
// counted and the run goes on; only a failed set-up aborts it.
func runE2E(w workload, seed int64, scratch string) (*e2eRep, error) {
	dir, err := os.MkdirTemp(scratch, "e2e-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	reg := ph.NewMetricsRegistry()
	rep := &e2eRep{}

	start := time.Now()
	sn, err := setUp(w, seed, dir, reg)
	if err != nil {
		return nil, err
	}
	defer sn.Close()
	rep.setup = time.Since(start)

	var last *ph.DetectionResult
	for h := 1; h <= w.hours; h++ {
		t := time.Now()
		err := sn.RunHours(1)
		d := time.Since(t)
		rep.hours = append(rep.hours, d)
		rep.run += d
		rep.ops.record(check("RunHours", err))
		if h%w.detectEvery != 0 {
			continue
		}
		t = time.Now()
		res, err := sn.DetectAll()
		d = time.Since(t)
		rep.detects = append(rep.detects, d)
		rep.run += d
		rep.ops.record(check("DetectAll", err))
		if err != nil {
			continue
		}
		last = res
		// Quality pools every DetectAll's verdicts: the retained
		// captures of successive calls are disjoint on the capped
		// workload, and the one call is the last on the others.
		for _, c := range sn.Monitor().Captures() {
			rep.quality.add(c.Spam, c.Tweet.Spam)
		}
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.heapMB = mb(ms.HeapAlloc)

	if last != nil {
		rep.fp = fingerprint{Captures: last.Captures, Spams: last.Spams,
			Spammers: last.Spammers, TopPGE: topPGE(last.PGE, 10)}
	}
	rep.backpressure = familySum(reg, "ph_pipeline_backpressure_total")
	rep.batches = familySum(reg, "ph_pipeline_batches_total")
	rep.items = familySum(reg, "ph_pipeline_items_total")
	return rep, nil
}

// familySum adds up every series of one counter family.
func familySum(reg *ph.MetricsRegistry, name string) float64 {
	var sum float64
	for _, f := range reg.Snapshot() {
		if f.Name != name {
			continue
		}
		for _, s := range f.Samples {
			sum += s.Value
		}
	}
	return sum
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/core"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/label"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/ml"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
	"github.com/pseudo-honeypot/pseudohoneypot/internal/store"
)

// The layers the traced run attributes time to. Every timed call belongs
// to exactly one, so their sum plus the unattributed rest is the traced
// wall time.
const (
	laySocialnet = iota // world generation, the engine's own work, screening
	layCore             // rotation (less screening), match, capture ring, PGE
	layFeatures         // Monitor.ExtractCapture
	layLabel            // label.Store ingest and snapshots
	layML               // detector training and classification
	layStore            // WAL appends, checkpoints, open and close
	layRuntime          // forced collections for the retained-heap probes
	numLayers
)

// reconcileTolerance is the largest share of the traced wall time that may
// stay unattributed to a layer before the traced run fails its
// reconciliation check.
const reconcileTolerance = 0.05

// tracedResult holds the traced run's measurements.
type tracedResult struct {
	wall    time.Duration // set-up to last DetectAll, store closed
	runWall time.Duration // first RunHours to last DetectAll
	layers  [numLayers]time.Duration

	worldGen, engineSelf        time.Duration
	screen                      time.Duration
	screenCalls, screenReturned int
	rotations                   []time.Duration // whole Rotate calls, screening included
	groups                      int
	match                       time.Duration
	tweets, captures            int
	extract                     time.Duration
	pge                         time.Duration
	labelIngest, labelSnapshot  time.Duration
	labelTweets, labelUsers     int
	labelQuality                quality
	train, classify             time.Duration
	trainRows                   int
	checkpoint, sync            time.Duration
	ckptLabels, ckptExtractor   int64
	ckptCaptures, walBytes      int64
	allocMB                     float64
	gcCycles                    uint32
	heapHours, heapMBs          []float64 // retained heap at each probe
	fp                          fingerprint
	ops                         opCount
}

// unattributed is the traced wall time no layer accounts for.
func (r *tracedResult) unattributed() time.Duration {
	d := r.wall
	for _, l := range r.layers {
		d -= l
	}
	return d
}

// timedScreener wraps the monitor's screener to time and count World.Screen.
type timedScreener struct {
	inner    core.Screener
	calls    int
	returned int
	dur      time.Duration
}

func (s *timedScreener) Screen(q socialnet.ScreenQuery, now time.Time) []*socialnet.Account {
	start := time.Now()
	out := s.inner.Screen(q, now)
	s.dur += time.Since(start)
	s.calls++
	s.returned += len(out)
	return out
}

// countingBackend wraps the durable store's backend to count the bytes
// written to WAL segments and checkpoints and to time file syncs.
type countingBackend struct {
	store.Backend
	walBytes, ckptBytes int64
	sync                time.Duration
}

func (b *countingBackend) Create(name string) (store.WriteFile, error) {
	f, err := b.Backend.Create(name)
	if err != nil {
		return nil, err
	}
	n := &b.ckptBytes
	if strings.HasPrefix(name, "wal-") {
		n = &b.walBytes
	}
	return &countingFile{WriteFile: f, b: b, n: n}, nil
}

type countingFile struct {
	store.WriteFile
	b *countingBackend
	n *int64
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.WriteFile.Write(p)
	*f.n += int64(n)
	return n, err
}

func (f *countingFile) Sync() error {
	start := time.Now()
	err := f.WriteFile.Sync()
	f.b.sync += time.Since(start)
	return err
}

// tracer times calls into the layers from the benchmark's own code.
type tracer struct{ r *tracedResult }

// do runs fn, adds its duration to layer and returns the duration.
func (t tracer) do(layer int, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	t.r.layers[layer] += d
	return d
}

// runTraced drives the workload's layers directly on one goroutine, in the
// streaming runtime's stage order: the engine's hour hook rotates the node
// set (and checkpoints a durable store), each tweet is matched, extracted,
// retained, logged and batched into the label store, and every detectEvery
// hours the run labels, trains, classifies and ranks selector groups as
// DetectAll does. dir roots the durable store of a durable workload.
func runTraced(w workload, seed int64, dir string) (*tracedResult, error) {
	r := &tracedResult{}
	tr := tracer{r}
	var ms0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()

	var world *socialnet.World
	var err error
	r.worldGen = tr.do(laySocialnet, func() { world, err = socialnet.NewWorld(w.simConfig(seed)) })
	if err != nil {
		return nil, fmt.Errorf("new world: %w", err)
	}
	var engine *socialnet.Engine
	tr.do(laySocialnet, func() { engine = socialnet.NewEngine(world) })

	reg := metrics.NewRegistry()
	scr := &timedScreener{inner: &core.LocalScreener{World: world, Rng: rand.New(rand.NewSource(seed + 1))}}
	var mon *core.Monitor
	tr.do(layCore, func() {
		mon = core.NewMonitor(core.MonitorConfig{
			Specs:      core.StandardSpecs(2),
			ActiveOnly: true,
			Seed:       seed,
			CaptureCap: w.captureCap,
			Metrics:    reg,
		}, scr)
	})
	r.groups = len(mon.Groups())
	var ls *label.Store
	tr.do(layLabel, func() { ls = label.NewStore(label.DefaultConfig()) })

	var st *store.Store
	var backend *countingBackend
	if w.durable {
		tr.do(layStore, func() {
			var dirB *store.Dir
			if dirB, err = store.NewDir(dir); err != nil {
				return
			}
			backend = &countingBackend{Backend: dirB}
			st, _, err = store.Open(store.Options{
				Backend:   backend,
				SyncEvery: syncEvery,
				Meta:      "perfbench",
				Metrics:   reg,
			})
		})
		if err != nil {
			return nil, fmt.Errorf("open store: %w", err)
		}
	}

	// pending is the label batch being filled; labeled lists every tweet
	// the label store has taken, for the labels' quality.
	var pending []*core.Capture
	var labeled []*socialnet.Tweet
	flushLabels := func() {
		if len(pending) == 0 {
			return
		}
		tweets := make([]*socialnet.Tweet, len(pending))
		authors := make([]*socialnet.Account, len(pending))
		profiles := make([]*socialnet.Account, len(pending))
		for i, c := range pending {
			tweets[i], authors[i], profiles[i] = c.Tweet, c.Sender, c.SenderSnapshot()
		}
		r.labelIngest += tr.do(layLabel, func() { ls.AddBatch(tweets, authors, profiles) })
		labeled = append(labeled, tweets...)
		pending = pending[:0]
	}

	// opErr latches the first store failure of the current operation (an
	// hour or the closing of the store).
	var opErr error
	var lastCaptured socialnet.TweetID
	// checkpoint writes the components the sniffer's hourly checkpoint
	// holds, counting the bytes of the three large ones.
	checkpoint := func() {
		ck := &store.Checkpoint{TweetWatermark: int64(lastCaptured), Components: make(map[string][]byte, 4)}
		var buf bytes.Buffer
		snap := func(key string, size *int64, write func(io.Writer) error) {
			buf.Reset()
			if e := write(&buf); e != nil && opErr == nil {
				opErr = fmt.Errorf("checkpoint %s: %w", key, e)
			}
			if size != nil {
				*size += int64(buf.Len())
			}
			ck.Components[key] = append([]byte(nil), buf.Bytes()...)
		}
		snap("captures", &r.ckptCaptures, func(w io.Writer) error { return mon.Store().WriteSnapshot(w) })
		snap("labels", &r.ckptLabels, func(w io.Writer) error { return ls.WriteSnapshot(w) })
		snap("extractor", &r.ckptExtractor, func(w io.Writer) error { return mon.Extractor().WriteSnapshot(w) })
		snap("groups", nil, func(w io.Writer) error {
			return gob.NewEncoder(w).Encode(mon.SnapshotGroupStats())
		})
		if e := st.WriteCheckpoint(ck); e != nil && opErr == nil {
			opErr = fmt.Errorf("write checkpoint: %w", e)
		}
	}

	// hooks is the time spent inside the engine's callbacks, so that the
	// engine's own time is RunHours less hooks.
	var hooks time.Duration
	engine.OnHourStart(func(hour int, now time.Time) {
		hs := time.Now()
		screened := scr.dur
		d := tr.do(layCore, func() { mon.Rotate(now, time.Hour) })
		r.rotations = append(r.rotations, d)
		// Screening is the socialnet layer's work inside Rotate.
		r.layers[layCore] -= scr.dur - screened
		r.layers[laySocialnet] += scr.dur - screened
		// The store step is timed on every workload; without a durable
		// store it is an empty step.
		due := st != nil && hour > 0 && hour%checkpointEvery == 0
		if due {
			flushLabels()
		}
		r.checkpoint += tr.do(layStore, func() {
			if due {
				checkpoint()
			}
		})
		hooks += time.Since(hs)
	})
	engine.Subscribe(func(t *socialnet.Tweet) {
		hs := time.Now()
		r.tweets++
		c := mon.Match(t, world.Account)
		matched := time.Now()
		r.match += matched.Sub(hs)
		r.layers[layCore] += matched.Sub(hs)
		if c != nil {
			r.captures++
			lastCaptured = t.ID
			r.extract += tr.do(layFeatures, func() { mon.ExtractCapture(c) })
			tr.do(layCore, func() { mon.Store().Append(c) })
			if st != nil {
				tr.do(layStore, func() {
					rec := store.CaptureRecord{Tweet: *t, Sender: c.SenderSnapshot(),
						Receiver: c.ReceiverSnapshot(), Groups: c.Groups, Src: "twitter"}
					if e := st.AppendCapture(&rec); e != nil && opErr == nil {
						opErr = fmt.Errorf("wal append: %w", e)
					}
				})
			}
			pending = append(pending, c)
			if len(pending) == labelBatch {
				flushLabels()
			}
		}
		hooks += time.Since(hs)
	})

	probeHeap := func(hour int) {
		var ms runtime.MemStats
		tr.do(layRuntime, func() {
			runtime.GC()
			runtime.ReadMemStats(&ms)
		})
		r.heapHours = append(r.heapHours, float64(hour))
		r.heapMBs = append(r.heapMBs, mb(ms.HeapAlloc))
	}
	if w.detects() == 1 {
		// One DetectAll gives one point; the set-up heap is the other.
		probeHeap(0)
	}

	runStart := time.Now()
	for h := 1; h <= w.hours; h++ {
		before := hooks
		hs := time.Now()
		engine.RunHours(1)
		self := time.Since(hs) - (hooks - before)
		r.engineSelf += self
		r.layers[laySocialnet] += self
		r.ops.record(check("hour", opErr))
		opErr = nil
		if h%w.detectEvery != 0 {
			continue
		}
		flushLabels()
		r.ops.record(check("detect", detect(r, tr, seed, world, mon, ls, labeled)))
		probeHeap(h)
	}
	r.runWall = time.Since(runStart)
	// Closing syncs the WAL tail. Without a durable store the step is
	// empty and its time stands for the sync time.
	closing := tr.do(layStore, func() {
		if st != nil {
			opErr = st.Close()
		}
	})
	r.wall = time.Since(start)
	r.sync = closing
	if st != nil {
		r.ops.record(check("close store", opErr))
		r.walBytes = backend.walBytes
		r.sync = backend.sync
	}

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	r.allocMB = mb(ms1.TotalAlloc - ms0.TotalAlloc)
	r.gcCycles = ms1.NumGC - ms0.NumGC
	r.screen, r.screenCalls, r.screenReturned = scr.dur, scr.calls, scr.returned
	r.labelTweets, r.labelUsers = ls.Len()
	return r, nil
}

// detect is DetectAll's work on the traced run's layers: label snapshot,
// training and classification of the retained captures, spam attribution
// and the PGE ranking. It sets the run's fingerprint and quality figures.
func detect(r *tracedResult, tr tracer, seed int64, world *socialnet.World,
	mon *core.Monitor, ls *label.Store, labeled []*socialnet.Tweet) error {
	var captures []*core.Capture
	tr.do(layCore, func() { captures = mon.Captures() })
	var labels *label.Result
	r.labelSnapshot += tr.do(layLabel, func() {
		labels = ls.Snapshot(label.NewNoisyOracle(world, manualLabelErrorRate, seed+2))
	})
	var det *core.Detector
	var err error
	r.train += tr.do(layML, func() {
		var clf ml.Classifier
		if clf, err = core.NewClassifier(core.ClassifierRF, seed); err != nil {
			return
		}
		det = core.NewDetector(clf)
		err = det.Train(captures, labels)
	})
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	r.trainRows = len(captures)
	var verdicts []bool
	r.classify += tr.do(layML, func() { verdicts = det.Classify(captures) })
	var rows []core.PGERow
	r.pge += tr.do(layCore, func() {
		mon.AttributeSpam(verdicts)
		rows = core.ComputePGE(mon.Groups())
	})

	fp := fingerprint{Captures: len(captures), TopPGE: topPGE(rows, 10)}
	spammers := make(map[socialnet.AccountID]struct{})
	for i, v := range verdicts {
		if v {
			fp.Spams++
			spammers[captures[i].Tweet.AuthorID] = struct{}{}
		}
	}
	fp.Spammers = len(spammers)
	r.fp = fp
	r.labelQuality = quality{}
	for _, t := range labeled {
		r.labelQuality.add(labels.IsSpam(t.ID), t.Spam)
	}
	return nil
}

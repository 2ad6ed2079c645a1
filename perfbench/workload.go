package main

import (
	"fmt"

	ph "github.com/pseudo-honeypot/pseudohoneypot"
)

// workload is one sniffer deployment the benchmark drives. Every workload
// uses the default deployment plan (StandardSpecs(2): 480 nodes in 123
// selector groups) and the default 1,200 organic tweets per simulated
// hour; README.md gives the reason for each.
type workload struct {
	name     string
	accounts int
	hours    int
	// detectEvery is the number of simulated hours between DetectAll
	// calls; hours/detectEvery calls in all.
	detectEvery int
	// stream, captureCap and durable select the sniffer runtime; the zero
	// values are the sniffer's defaults.
	stream     bool
	captureCap int
	durable    bool
}

// Durable-store settings of the durable workload.
const (
	syncEvery       = 512
	checkpointEvery = 1
	// labelBatch is the label-store ingest batch of the traced run: the
	// streaming runtime's default micro-batch.
	labelBatch = ph.DefaultStreamBatchSize
	// manualLabelErrorRate is the sniffer's default annotator error rate.
	manualLabelErrorRate = 0.01
)

var workloads = []workload{
	{name: "day-6k", accounts: 6000, hours: 24, detectEvery: 24},
	{name: "wide-30k", accounts: 30000, hours: 6, detectEvery: 6},
	{name: "durable-24h", accounts: 6000, hours: 24, detectEvery: 3,
		stream: true, captureCap: 200, durable: true},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// toy shrinks w to a few seconds of work with the same runtime and the same
// number of DetectAll calls, for the smoke mode.
func (w workload) toy() workload {
	w.accounts = 1500
	detects := w.hours / w.detectEvery
	w.detectEvery = 2
	w.hours = 2 * detects
	return w
}

func (w workload) detects() int { return w.hours / w.detectEvery }

// simConfig is the world configuration at seed.
func (w workload) simConfig(seed int64) ph.Config {
	cfg := ph.DefaultConfig()
	cfg.Seed = seed
	cfg.NumAccounts = w.accounts
	return cfg
}

// snifferConfig is the sniffer configuration at seed; dir roots the durable
// store of a durable workload.
func (w workload) snifferConfig(seed int64, dir string, reg *ph.MetricsRegistry) ph.SnifferConfig {
	cfg := ph.SnifferConfig{
		Seed:       seed,
		CaptureCap: w.captureCap,
		Stream:     ph.StreamConfig{Enabled: w.stream},
		Metrics:    reg,
	}
	if w.durable {
		cfg.Durability = ph.DurabilityConfig{
			Dir:             dir,
			SyncEvery:       syncEvery,
			CheckpointEvery: checkpointEvery,
		}
	}
	return cfg
}

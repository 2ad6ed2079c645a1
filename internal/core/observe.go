package core

import (
	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
)

// Metric names follow the scheme documented in DESIGN.md §9:
// ph_<component>_<name>_<unit|total>, with per-group series labeled by the
// selector's display string (Selector.String()).

// monitorInstruments is the monitor's view of the metrics registry. The
// per-group children are resolved once at construction so the stream hot
// path pays one atomic add per capture, never a label lookup.
type monitorInstruments struct {
	tweetsCaptured *metrics.Counter
	rotations      *metrics.Counter
	rotationSecs   *metrics.Histogram
	nodes          *metrics.Gauge
	// Screener calls per Rotate pass: every group's first screen
	// ("active"), the dormant fallback and the exclusion-lifting reuse
	// fallback.
	screensActive  *metrics.Counter
	screensDormant *metrics.Counter
	screensReuse   *metrics.Counter

	groupTweets    []*metrics.Counter
	groupNodeHours []*metrics.Counter
	groupSpams     []*metrics.Gauge
	groupSpammers  []*metrics.Gauge
	groupPGE       []*metrics.Gauge
}

func newMonitorInstruments(r *metrics.Registry, groups []*GroupStats) *monitorInstruments {
	ins := &monitorInstruments{
		tweetsCaptured: r.Counter("ph_monitor_tweets_captured_total",
			"Tweets captured by the mention filter across all selector groups."),
		rotations: r.Counter("ph_monitor_rotations_total",
			"Node-set rotations performed."),
		rotationSecs: r.Histogram("ph_monitor_rotation_seconds",
			"Wall-clock latency of one node-set rotation (screening included).", nil),
		nodes: r.Gauge("ph_monitor_nodes",
			"Currently harnessed pseudo-honeypot accounts."),
	}
	screens := r.CounterVec("ph_monitor_screens_total",
		"Screener calls made by node rotation, by pass: every group's first screen (active), the dormant fallback, and the reuse fallback once exclusion exhausts the candidates.", "pass")
	ins.screensActive = screens.With("active")
	ins.screensDormant = screens.With("dormant")
	ins.screensReuse = screens.With("reuse")
	tweets := r.CounterVec("ph_monitor_group_tweets_total",
		"Tweets attributed to a selector group.", "selector")
	hours := r.CounterVec("ph_monitor_group_node_hours_total",
		"Accumulated node-hours (the G·T term of the PGE denominator).", "selector")
	spams := r.GaugeVec("ph_monitor_group_spams",
		"Spam tweets attributed to a selector group by the detector.", "selector")
	spammers := r.GaugeVec("ph_monitor_group_spammers",
		"Distinct spammers garnered by a selector group (the N term of PGE).", "selector")
	pge := r.GaugeVec("ph_monitor_group_pge",
		"Live garner efficiency PGE = N/(G·T), spammers per node-hour (paper §V-E).", "selector")
	for _, g := range groups {
		sel := g.Spec.Selector.String()
		ins.groupTweets = append(ins.groupTweets, tweets.With(sel))
		ins.groupNodeHours = append(ins.groupNodeHours, hours.With(sel))
		ins.groupSpams = append(ins.groupSpams, spams.With(sel))
		ins.groupSpammers = append(ins.groupSpammers, spammers.With(sel))
		ins.groupPGE = append(ins.groupPGE, pge.With(sel))
	}
	return ins
}

// updateGroup refreshes the attribution gauges from the group's live
// statistics, keeping the exported PGE exactly what ComputePGE reports.
func (ins *monitorInstruments) updateGroup(gi int, g *GroupStats) {
	ins.groupSpams[gi].Set(float64(g.Spams))
	ins.groupSpammers[gi].Set(float64(len(g.Spammers)))
	pge := 0.0
	if g.NodeHours > 0 {
		pge = float64(len(g.Spammers)) / g.NodeHours
	}
	ins.groupPGE[gi].Set(pge)
}

// detectorInstruments is the detector's view of the metrics registry.
type detectorInstruments struct {
	trainSecs       *metrics.Histogram
	classifySecs    *metrics.Histogram
	classifications *metrics.Counter
	spams           *metrics.Counter
	spamRatio       *metrics.Gauge
}

func newDetectorInstruments(r *metrics.Registry) *detectorInstruments {
	return &detectorInstruments{
		trainSecs: r.Histogram("ph_detector_train_seconds",
			"Wall-clock latency of one detector training pass.", nil),
		classifySecs: r.Histogram("ph_detector_classify_seconds",
			"Wall-clock latency of one batch classification pass.", nil),
		classifications: r.Counter("ph_detector_classifications_total",
			"Captures classified by the detector."),
		spams: r.Counter("ph_detector_spam_total",
			"Captures the detector judged spam."),
		spamRatio: r.Gauge("ph_detector_spam_ratio",
			"Spam fraction of the most recent classification batch."),
	}
}

package core

import (
	"sync"

	"piggyback/internal/trace"
)

// OnlineProbVolumes implements the §3.3.1 online alternative: "The server
// can estimate the probabilities p(s|r) from the stream of requests in a
// periodic fashion, such as once a day or once a week, or in an online
// fashion if access patterns and resource characteristics change
// frequently."
//
// It keeps a ProbBuilder fed with live traffic and periodically rebuilds
// the query snapshot, so volume membership tracks shifting access
// patterns. Piggyback always serves from the latest built snapshot;
// Observe feeds the builder and triggers rebuilds every RebuildEvery
// observations (sampled counter creation bounds the builder's memory).
// It is safe for concurrent use.
type OnlineProbVolumes struct {
	// RebuildEvery rebuilds the snapshot after this many observations;
	// zero means 10000.
	RebuildEvery int
	// MinKeep discards pairs below this probability at build time.
	MinKeep float64
	// ServerMaxPiggy caps elements per message.
	ServerMaxPiggy int

	mu       sync.RWMutex
	builder  *ProbBuilder
	snapshot *ProbVolumes
	sinceB   int
	rebuilds int
}

// NewOnlineProbVolumes returns an online engine with the given builder
// configuration. Sampling is enabled by default to bound counter memory on
// an endless stream.
func NewOnlineProbVolumes(cfg ProbConfig, rebuildEvery int) *OnlineProbVolumes {
	if !cfg.Sampling {
		cfg.Sampling = true
		if cfg.SampleK == 0 {
			cfg.SampleK = 4
		}
	}
	return &OnlineProbVolumes{
		RebuildEvery: rebuildEvery,
		builder:      NewProbBuilder(cfg),
	}
}

func (o *OnlineProbVolumes) rebuildEvery() int {
	if o.RebuildEvery <= 0 {
		return 10000
	}
	return o.RebuildEvery
}

// Observe implements Provider: feed the builder; rebuild when due.
func (o *OnlineProbVolumes) Observe(a Access) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.builder.Observe(trace.Record{
		Time:         a.Time,
		Client:       a.Source,
		URL:          a.Element.URL,
		Size:         a.Element.Size,
		LastModified: a.Element.LastModified,
	})
	o.sinceB++
	if o.sinceB >= o.rebuildEvery() || o.snapshot == nil {
		o.rebuildLocked()
	}
}

// rebuildLocked regenerates the query snapshot. Caller holds o.mu.
func (o *OnlineProbVolumes) rebuildLocked() {
	snap := o.builder.Build(o.MinKeep)
	snap.ServerMaxPiggy = o.ServerMaxPiggy
	o.snapshot = snap
	o.sinceB = 0
	o.rebuilds++
}

// Rebuild forces an immediate snapshot rebuild (e.g. from a timer rather
// than an observation count).
func (o *OnlineProbVolumes) Rebuild() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.rebuildLocked()
}

// Rebuilds returns how many snapshots have been built.
func (o *OnlineProbVolumes) Rebuilds() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.rebuilds
}

// Piggyback implements Provider against the latest snapshot.
func (o *OnlineProbVolumes) Piggyback(url string, now int64, f Filter) (Message, bool) {
	o.mu.RLock()
	snap := o.snapshot
	o.mu.RUnlock()
	if snap == nil {
		return Message{}, false
	}
	return snap.Piggyback(url, now, f)
}

// Snapshot returns the current query snapshot (nil before any build).
func (o *OnlineProbVolumes) Snapshot() *ProbVolumes {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.snapshot
}

// Counters reports the live pair-counter count — the memory the sampling
// policy is bounding.
func (o *OnlineProbVolumes) Counters() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.builder.NumCounters()
}

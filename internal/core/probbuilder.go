package core

import (
	"math/rand"
	"sort"

	"piggyback/internal/trace"
)

// ProbConfig configures probability-based volume construction (§3.3.1).
type ProbConfig struct {
	// T is the co-occurrence window in seconds: p(s|r) is the proportion
	// of requests for r followed by a request for s by the same source
	// within T seconds. The paper uses T = 300.
	T int64
	// Pt is the base membership threshold: s joins r's volume when
	// p(s|r) >= Pt. Query-time filters can raise (never lower) it.
	Pt float64
	// Sampling enables random sampled counter creation: when a pair
	// (r,s) has no counter, one is created with probability
	// p = min(1, SampleK/(c_r * Pt)), so frequently co-occurring pairs get
	// counters without tracking every pair (§3.3.1). A created counter
	// starts at 1/p, so pair-count estimates stay unbiased.
	Sampling bool
	// SampleK is the sampling constant; zero means 4.
	SampleK float64
	// Seed fixes the sampling randomness.
	Seed int64
}

// maxWindow caps the requests kept per source.
const maxWindow = 256 // bounds memory on adversarial traces

func (c ProbConfig) sampleK() float64 {
	if c.SampleK <= 0 {
		return 4
	}
	return c.SampleK
}

// ProbBuilder estimates pairwise implication probabilities from a request
// stream (§3.3.1): counters c_r for individual resources and c_{s|r} for
// pairs, where p(s|r) = c_{s|r}/c_r. Feed it a log via Observe (or
// ObserveLog), then call Build.
//
// A ProbBuilder is not safe for concurrent use.
type ProbBuilder struct {
	cfg ProbConfig

	counts  map[string]int            // c_r
	pairs   map[string]map[string]int // r -> s -> c_{s|r}
	windows map[string][]*winEntry    // per-source recent requests
	attrs   map[string]Element        // latest attributes per resource
	rng     *rand.Rand

	// CountersCreated and PairsSkipped expose the memory/accuracy
	// tradeoff of sampled counter creation for the ablation bench.
	CountersCreated int
	PairsSkipped    int
}

type winEntry struct {
	url      string
	time     int64
	credited map[string]struct{}
}

// NewProbBuilder returns a builder with the given configuration. Zero
// fields default to T=300 and Pt=0.1.
func NewProbBuilder(cfg ProbConfig) *ProbBuilder {
	if cfg.T <= 0 {
		cfg.T = 300
	}
	if cfg.Pt <= 0 {
		cfg.Pt = 0.1
	}
	return &ProbBuilder{
		cfg:     cfg,
		counts:  make(map[string]int),
		pairs:   make(map[string]map[string]int),
		windows: make(map[string][]*winEntry),
		attrs:   make(map[string]Element),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Observe feeds one log record to the builder. Records must arrive in
// nondecreasing time order per source.
func (b *ProbBuilder) Observe(rec trace.Record) {
	url := rec.URL
	e := Element{URL: url, Size: rec.Size, LastModified: rec.LastModified}
	if old, ok := b.attrs[url]; ok {
		// Keep the largest observed size (304 responses log size 0)
		// and the newest Last-Modified.
		if e.Size == 0 {
			e.Size = old.Size
		}
		if e.LastModified < old.LastModified {
			e.LastModified = old.LastModified
		}
	}
	b.attrs[url] = e
	b.counts[url]++

	w := b.windows[rec.Client]
	// Expire window entries older than T.
	cut := 0
	for cut < len(w) && rec.Time-w[cut].time > b.cfg.T {
		cut++
	}
	if cut > 0 {
		w = append(w[:0], w[cut:]...)
	}

	// Credit each in-window occurrence of a predecessor r at most once
	// per successor s: c_{s|r} counts r-occurrences followed by >= 1
	// request for s within T.
	for _, entry := range w {
		if entry.url == url {
			continue // self-pairs carry no prediction value
		}
		if _, done := entry.credited[url]; done {
			continue
		}
		if entry.credited == nil {
			entry.credited = make(map[string]struct{}, 4)
		}
		entry.credited[url] = struct{}{}
		b.creditPair(entry.url, url)
	}

	w = append(w, &winEntry{url: url, time: rec.Time})
	if len(w) > maxWindow {
		w = append(w[:0], w[len(w)-maxWindow:]...)
	}
	b.windows[rec.Client] = w
}

// creditPair increments c_{s|r}, creating the counter per the sampling
// policy when absent.
func (b *ProbBuilder) creditPair(r, s string) {
	m, ok := b.pairs[r]
	if !ok {
		m = make(map[string]int, 4)
		b.pairs[r] = m
	}
	if _, ok := m[s]; ok {
		m[s]++
		return
	}
	if !b.cfg.Sampling {
		m[s] = 1
		b.CountersCreated++
		return
	}
	// Create with probability inversely proportional to c_r * Pt: pairs
	// that co-occur often get counters; rare pairs are mostly skipped.
	p := b.cfg.sampleK() / (float64(b.counts[r]) * b.cfg.Pt)
	if p > 1 {
		p = 1
	}
	if b.rng.Float64() >= p {
		b.PairsSkipped++
		return
	}
	// Start at 1/p so the pair-count estimate stays unbiased (§3.3.1).
	m[s] = int(1/p + 0.5)
	b.CountersCreated++
}

// ObserveLog feeds an entire log, in time order.
func (b *ProbBuilder) ObserveLog(l trace.Log) {
	for i := range l {
		b.Observe(l[i])
	}
}

// NumCounters returns the number of live pair counters — the memory cost
// sampling is designed to bound.
func (b *ProbBuilder) NumCounters() int {
	n := 0
	for _, m := range b.pairs {
		n += len(m)
	}
	return n
}

// Build computes implication probabilities and assembles the volumes.
// Pairs with p(s|r) < minKeep are discarded to bound memory; the runtime
// membership threshold remains cfg.Pt (raised further by query filters).
// Pass minKeep = 0 to keep every counted pair.
func (b *ProbBuilder) Build(minKeep float64) *ProbVolumes {
	v := &ProbVolumes{
		T:       b.cfg.T,
		Pt:      b.cfg.Pt,
		imps:    make(map[string][]Implication, len(b.pairs)),
		ids:     make(map[string]VolumeID, len(b.counts)),
		counts:  b.counts,
		attrs:   b.attrs,
		sameDir: -1,
	}
	// Deterministic id assignment: sort resources by URL.
	urls := make([]string, 0, len(b.counts))
	for url := range b.counts {
		urls = append(urls, url)
	}
	sort.Strings(urls)
	var next VolumeID
	for _, url := range urls {
		v.ids[url] = next
		next++
		if next > MaxVolumeID {
			next = 0
		}
	}
	for r, m := range b.pairs {
		cr := b.counts[r]
		if cr == 0 {
			continue
		}
		imps := make([]Implication, 0, len(m))
		for s, csr := range m {
			p := float64(csr) / float64(cr)
			if p > 1 {
				p = 1 // unbiased-init overshoot clamps at certainty
			}
			if p < minKeep {
				continue
			}
			imps = append(imps, Implication{
				Elem: b.attrs[s],
				P:    p,
				EffP: 1, // until thinning measures otherwise
			})
		}
		if len(imps) == 0 {
			continue
		}
		sort.Slice(imps, func(i, j int) bool {
			if imps[i].P != imps[j].P {
				return imps[i].P > imps[j].P
			}
			return imps[i].Elem.URL < imps[j].Elem.URL
		})
		v.imps[r] = imps
	}
	return v
}

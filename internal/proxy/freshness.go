package proxy

import "sync"

// FreshnessEstimator implements the adaptive freshness interval of §4:
// "Since the piggyback includes the Last-Modified time of each resource,
// the proxy can estimate and record how often the resource changes... the
// proxy can use the rate-of-change information to... select an appropriate
// freshness interval (Δ) for that resource."
//
// For each resource it tracks an exponentially weighted mean of the
// observed intervals between Last-Modified changes and derives Δ as a
// fraction of that interval, clamped to [min, max].
type FreshnessEstimator struct {
	// def is Δ for resources with no change observations yet; min and max
	// (when positive) clamp the adaptive interval.
	def, min, max int64
	// fraction of the mean change interval used as Δ: 0.5, validate roughly
	// twice per expected change (tests change it).
	fraction float64

	mu  sync.Mutex
	obs map[string]*freshObs
}

type freshObs struct {
	lastLM  int64
	ewma    float64
	changes int
}

// NewFreshnessEstimator returns an estimator with the given default Δ and
// clamp range (seconds).
func NewFreshnessEstimator(def, min, max int64) *FreshnessEstimator {
	return &FreshnessEstimator{def: def, min: min, max: max, fraction: 0.5, obs: make(map[string]*freshObs)}
}

// Observe records a Last-Modified value seen for url (from a response or a
// piggyback element).
func (f *FreshnessEstimator) Observe(url string, lastModified int64) {
	if lastModified <= 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	o, ok := f.obs[url]
	if !ok {
		f.obs[url] = &freshObs{lastLM: lastModified}
		return
	}
	if lastModified <= o.lastLM {
		return // same or older version: no new information
	}
	interval := float64(lastModified - o.lastLM)
	o.lastLM = lastModified
	o.changes++
	if o.changes == 1 {
		o.ewma = interval
	} else {
		const alpha = 0.3
		o.ewma = alpha*interval + (1-alpha)*o.ewma
	}
}

// Delta returns the freshness interval to assign url's cached copy.
func (f *FreshnessEstimator) Delta(url string) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	o, ok := f.obs[url]
	if !ok || o.changes == 0 {
		return f.def
	}
	d := int64(o.ewma * f.fraction)
	if f.min > 0 && d < f.min {
		d = f.min
	}
	if f.max > 0 && d > f.max {
		d = f.max
	}
	return d
}

// changeCount returns how many modifications have been observed for url.
func (f *FreshnessEstimator) changeCount(url string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if o, ok := f.obs[url]; ok {
		return o.changes
	}
	return 0
}

// tracked returns the number of resources with observations.
func (f *FreshnessEstimator) tracked() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.obs)
}

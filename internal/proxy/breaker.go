package proxy

import (
	"math/rand"
	"sync"
	"time"

	"piggyback/internal/obs"
)

// The paper's piggyback exchange is best-effort (§2.1): a proxy must keep
// serving when an origin stalls or disappears. The per-host circuit
// breaker turns repeated upstream failures into fast local refusals —
// after breakerFailures consecutive qualifying failures the host trips
// open and requests short-circuit without dialing; after a jittered
// backoff a single half-open probe is let through, and its outcome either
// closes the circuit or re-opens it with doubled backoff.

const (
	breakerFailures   = 5                      // consecutive failures to trip
	breakerBackoff    = 500 * time.Millisecond // initial open interval
	breakerMaxBackoff = 30 * time.Second       // backoff doubling cap
	breakerSeed       = 1                      // jitter seed: runs replay
)

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breaker tracks one state machine per upstream host.
type breaker struct {
	// failures, backoff and maxBackoff start at the breaker* constants;
	// tests change them.
	failures            int
	backoff, maxBackoff time.Duration
	// now is injectable for deterministic state-machine tests.
	now func() time.Time

	opens         *obs.Counter // cumulative open transitions
	openGauge     *obs.Counter // gauge: hosts currently tripped (open or half-open)
	shortCircuits *obs.Counter // requests refused without dialing

	mu    sync.Mutex
	rng   *rand.Rand
	hosts map[string]*hostBreaker
}

type hostBreaker struct {
	state     breakerState
	fails     int           // consecutive failures while closed
	openUntil time.Time     // when the open circuit admits a probe
	backoff   time.Duration // current open interval
	probing   bool          // a half-open probe is in flight
}

// newBreaker wires a breaker's counters into the proxy registry under
// prefix ("proxy.breaker" for the origin legs' breaker, "peer.breaker" for
// the mesh's per-peer one).
func newBreaker(reg *obs.Registry, prefix string) *breaker {
	return &breaker{
		failures:      breakerFailures,
		backoff:       breakerBackoff,
		maxBackoff:    breakerMaxBackoff,
		now:           time.Now,
		opens:         reg.Counter(prefix + ".opens"),
		openGauge:     reg.Counter(prefix + ".open"),
		shortCircuits: reg.Counter(prefix + ".short_circuits"),
		rng:           rand.New(rand.NewSource(breakerSeed)),
		hosts:         make(map[string]*hostBreaker),
	}
}

// Allow reports whether a request to host may dial upstream. An open
// circuit past its backoff admits exactly one half-open probe; refusals
// are counted as short-circuits.
func (b *breaker) Allow(host string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	hb, ok := b.hosts[host]
	if !ok {
		return true
	}
	switch hb.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if !b.now().Before(hb.openUntil) {
			hb.state = breakerHalfOpen
			hb.probing = true
			return true
		}
	case breakerHalfOpen:
		if !hb.probing {
			hb.probing = true
			return true
		}
	}
	b.shortCircuits.Inc()
	return false
}

// Success records a completed exchange with host: the circuit closes and
// the failure run resets.
func (b *breaker) Success(host string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	hb, ok := b.hosts[host]
	if !ok {
		return
	}
	if hb.state != breakerClosed {
		b.openGauge.Add(-1)
	}
	delete(b.hosts, host)
}

// Failure records a qualifying upstream failure (anything but caller
// cancellation) for host.
func (b *breaker) Failure(host string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	hb, ok := b.hosts[host]
	if !ok {
		hb = &hostBreaker{backoff: b.backoff}
		b.hosts[host] = hb
	}
	switch hb.state {
	case breakerClosed:
		hb.fails++
		if hb.fails >= b.failures {
			b.openGauge.Inc()
			b.tripLocked(hb)
		}
	case breakerHalfOpen:
		// The probe failed: re-open with doubled backoff. The gauge
		// already counts this host (half-open is still tripped).
		hb.probing = false
		hb.backoff *= 2
		if hb.backoff > b.maxBackoff {
			hb.backoff = b.maxBackoff
		}
		b.tripLocked(hb)
	case breakerOpen:
		// A straggler from before the trip; no state change.
	}
}

// tripLocked moves hb to open with a jittered backoff window (0.5×–1.5×
// the nominal interval, so a fleet of proxies doesn't probe in lockstep).
// Caller holds b.mu.
func (b *breaker) tripLocked(hb *hostBreaker) {
	hb.state = breakerOpen
	hb.fails = 0
	jittered := time.Duration(float64(hb.backoff) * (0.5 + b.rng.Float64()))
	hb.openUntil = b.now().Add(jittered)
	b.opens.Inc()
}

// OpenHosts returns how many hosts are currently tripped (the
// proxy.breaker.open gauge).
func (b *breaker) OpenHosts() int {
	return int(b.openGauge.Load())
}

package proxy

import (
	"math/rand"
	"testing"
	"time"

	"piggyback/internal/obs"
)

// testBreaker returns a breaker that trips after failures consecutive
// failures into a backoff-long open window, with an injectable clock. The
// returned advance function moves the clock forward.
func testBreaker(t *testing.T, failures int, backoff time.Duration) (*breaker, func(time.Duration)) {
	t.Helper()
	b := newBreaker(obs.NewRegistry(), "proxy.breaker")
	b.failures, b.backoff = failures, backoff
	now := time.Unix(1_000_000, 0)
	b.now = func() time.Time { return now }
	return b, func(d time.Duration) { now = now.Add(d) }
}

func TestBreakerTripsAfterThreshold(t *testing.T) {
	b, _ := testBreaker(t, 3, time.Second)
	for i := 0; i < 2; i++ {
		if !b.Allow("h") {
			t.Fatalf("denied while closed after %d failures", i)
		}
		b.Failure("h")
	}
	if b.OpenHosts() != 0 {
		t.Fatal("tripped before threshold")
	}
	b.Failure("h") // third consecutive failure trips
	if b.OpenHosts() != 1 {
		t.Fatalf("OpenHosts = %d after threshold, want 1", b.OpenHosts())
	}
	if b.opens.Load() != 1 {
		t.Fatalf("opens counter = %d, want 1", b.opens.Load())
	}
	if b.Allow("h") {
		t.Fatal("open circuit allowed a request inside the backoff window")
	}
	if b.shortCircuits.Load() != 1 {
		t.Fatalf("shortCircuits = %d, want 1", b.shortCircuits.Load())
	}
	// Other hosts are unaffected.
	if !b.Allow("other") {
		t.Fatal("unrelated host denied")
	}
}

func TestBreakerSuccessResetsFailureRun(t *testing.T) {
	b, _ := testBreaker(t, 3, time.Second)
	b.Failure("h")
	b.Failure("h")
	b.Success("h") // breaks the consecutive run
	b.Failure("h")
	b.Failure("h")
	if b.OpenHosts() != 0 {
		t.Fatal("non-consecutive failures tripped the breaker")
	}
	b.Failure("h")
	if b.OpenHosts() != 1 {
		t.Fatal("three consecutive failures after reset did not trip")
	}
}

func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	b, advance := testBreaker(t, 1, time.Second)
	b.Failure("h")
	if b.Allow("h") {
		t.Fatal("allowed during open window")
	}
	// Jitter caps the window at 1.5× backoff; past that a probe is let in.
	advance(1500 * time.Millisecond)
	if !b.Allow("h") {
		t.Fatal("no probe admitted after backoff elapsed")
	}
	// Only ONE probe: concurrent requests still short-circuit.
	if b.Allow("h") {
		t.Fatal("second concurrent probe admitted")
	}
	b.Success("h")
	if b.OpenHosts() != 0 {
		t.Fatalf("OpenHosts = %d after successful probe, want 0", b.OpenHosts())
	}
	if !b.Allow("h") {
		t.Fatal("closed circuit denied a request")
	}
}

func TestBreakerFailedProbeDoublesBackoff(t *testing.T) {
	b, advance := testBreaker(t, 1, time.Second)
	b.maxBackoff = 3 * time.Second
	b.Failure("h")
	advance(1500 * time.Millisecond)
	if !b.Allow("h") {
		t.Fatal("no probe admitted")
	}
	b.Failure("h") // probe fails: backoff doubles to 2s
	if got := b.hosts["h"].backoff; got != 2*time.Second {
		t.Fatalf("backoff after failed probe = %v, want 2s", got)
	}
	if b.OpenHosts() != 1 {
		t.Fatalf("OpenHosts = %d after failed probe, want 1 (still tripped)", b.OpenHosts())
	}
	if b.opens.Load() != 2 {
		t.Fatalf("opens = %d, want 2 (initial trip + re-open)", b.opens.Load())
	}
	// Minimum jitter is 0.5×: 2s backoff can open as soon as 1s out.
	if b.Allow("h") {
		t.Fatal("re-opened circuit allowed immediately")
	}
	advance(3 * time.Second) // past 1.5×2s
	if !b.Allow("h") {
		t.Fatal("no probe after doubled backoff elapsed")
	}
	b.Failure("h") // doubles to 4s, capped at maxBackoff=3s
	if got := b.hosts["h"].backoff; got != 3*time.Second {
		t.Fatalf("backoff = %v, want capped 3s", got)
	}
	advance(5 * time.Second)
	if !b.Allow("h") {
		t.Fatal("no probe after capped backoff")
	}
	b.Success("h")
	if b.OpenHosts() != 0 || b.openGauge.Load() != 0 {
		t.Fatal("gauge not cleared after recovery")
	}
}

func TestBreakerStragglerFailureWhileOpen(t *testing.T) {
	// A failure reported by an exchange that was already in flight when the
	// circuit tripped must not extend or double the window.
	b, _ := testBreaker(t, 1, time.Second)
	b.Failure("h")
	until := b.hosts["h"].openUntil
	b.Failure("h") // straggler
	if got := b.hosts["h"].openUntil; !got.Equal(until) {
		t.Fatalf("straggler moved openUntil from %v to %v", until, got)
	}
	if got := b.hosts["h"].backoff; got != time.Second {
		t.Fatalf("straggler changed backoff: %v", got)
	}
	if b.opens.Load() != 1 {
		t.Fatalf("straggler re-counted an open: opens = %d", b.opens.Load())
	}
}

func TestBreakerJitterWithinBounds(t *testing.T) {
	// The open window must land in [0.5×, 1.5×) of the nominal backoff.
	for seed := int64(1); seed <= 20; seed++ {
		b, _ := testBreaker(t, 1, time.Second)
		b.rng = rand.New(rand.NewSource(seed))
		start := b.now()
		b.Failure("h")
		win := b.hosts["h"].openUntil.Sub(start)
		if win < 500*time.Millisecond || win >= 1500*time.Millisecond {
			t.Fatalf("seed %d: open window %v outside [0.5s, 1.5s)", seed, win)
		}
	}
}

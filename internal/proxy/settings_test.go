package proxy

import (
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// TestFixedSettings pins the values the proxy uses where it has no option:
// the legs' exchanges per connection, the breaker's threshold, window, cap
// and jitter seed, the peer exchange timeout, the adaptive-Δ clamp and the
// prefetch queue bound.
func TestFixedSettings(t *testing.T) {
	p := New(Config{
		Delta:             600,
		AdaptiveFreshness: true,
		Clock:             func() int64 { return 10_000 },
		Resolve:           func(string) (string, error) { return "127.0.0.1:1", nil },
		PeerSelf:          "127.0.0.1:2",
		Peers:             []string{"127.0.0.1:3"},
	})
	defer p.Close()

	t.Run("exchanges per connection", func(t *testing.T) {
		if got := p.origin.client.MaxInflightPerConn; got != 4 {
			t.Errorf("origin leg carries %d exchanges per connection, want 4", got)
		}
		if got := p.prefetch.client.MaxInflightPerConn; got != 1 {
			t.Errorf("prefetch leg carries %d exchanges per connection, want 1", got)
		}
		if got := max(p.mesh.client.MaxInflightPerConn, 1); got != 1 {
			t.Errorf("peer leg carries %d exchanges per connection, want 1", got)
		}
	})

	t.Run("peer timeout", func(t *testing.T) {
		if got := p.mesh.client.RequestTimeout; got != 5*time.Second {
			t.Errorf("peer exchange timeout %v, want 5s", got)
		}
	})

	t.Run("breaker", func(t *testing.T) {
		for name, b := range map[string]*breaker{"origin": p.origin.breaker, "peer": p.mesh.breaker} {
			now := time.Unix(1_000_000, 0)
			b.now = func() time.Time { return now }
			for i := 0; i < 5; i++ {
				if b.OpenHosts() != 0 {
					t.Fatalf("%s breaker tripped after %d failures, want 5", name, i)
				}
				b.Failure("h")
			}
			if b.OpenHosts() != 1 {
				t.Fatalf("%s breaker not tripped after 5 failures", name)
			}
			// Seed 1 draws the first jitter factor; the window is that
			// factor (0.5×–1.5×) of 500 ms.
			want := time.Duration(float64(500*time.Millisecond) * (0.5 + rand.New(rand.NewSource(1)).Float64()))
			if got := b.hosts["h"].openUntil.Sub(now); got != want {
				t.Errorf("%s breaker open window %v, want %v (seed 1 jitter of 500ms)", name, got, want)
			}
			// Failed probes double the backoff up to the cap.
			for i := 0; i < 8; i++ {
				now = b.hosts["h"].openUntil
				if !b.Allow("h") {
					t.Fatalf("%s breaker admitted no probe at the end of its window", name)
				}
				b.Failure("h")
			}
			if got := b.hosts["h"].backoff; got != 30*time.Second {
				t.Errorf("%s breaker backoff %v after 8 failed probes, want the 30s cap", name, got)
			}
		}
	})

	t.Run("adaptive delta clamp", func(t *testing.T) {
		p.fresh.Observe("fast", 1000)
		p.fresh.Observe("fast", 1001)
		if got := p.fresh.Delta("fast"); got != 60 {
			t.Errorf("Δ for a resource changing every second = %d, want Δ/10 = 60", got)
		}
		p.fresh.Observe("slow", 1000)
		p.fresh.Observe("slow", 1000+1<<30)
		if got := p.fresh.Delta("slow"); got != 14400 {
			t.Errorf("Δ for a resource changing every 34 years = %d, want 24·Δ = 14400", got)
		}
	})

	t.Run("prefetch queue bound", func(t *testing.T) {
		for i := 0; i < 1100; i++ {
			p.queue.Push(FetchItem{Host: "h", URL: "/" + strconv.Itoa(i), Size: int64(i)})
		}
		if got := p.queue.Len(); got != 1024 {
			t.Errorf("prefetch queue holds %d items, want 1024", got)
		}
	})
}

package proxy

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"piggyback/internal/faultconn"
	"piggyback/internal/httpwire"
	"piggyback/internal/server"
)

// faultBed wires origin -> proxy with a fault-injecting listener between
// them. The proxy handler is driven directly (ServeWire) so tests control
// the caller context.
type faultBed struct {
	mu    sync.Mutex
	now   int64
	fl    *faultconn.Listener
	store *server.Store
	proxy *Proxy
}

func (fb *faultBed) clock() int64 {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.now
}

func (fb *faultBed) advance(d int64) {
	fb.mu.Lock()
	fb.now += d
	fb.mu.Unlock()
}

func newFaultBed(t *testing.T, cfg Config) *faultBed {
	t.Helper()
	fb := &faultBed{now: 10000}
	fb.store = server.NewStore()
	fb.store.Put(server.Resource{URL: "/a/x.html", Size: 400, LastModified: 1000})
	fb.store.Put(server.Resource{URL: "/a/y.gif", Size: 200, LastModified: 1500})
	origin := server.New(fb.store, nil, fb.clock)

	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fb.fl = faultconn.NewListener(inner, faultconn.Profile{}, 1)
	osrv := &httpwire.Server{Handler: origin}
	go osrv.Serve(fb.fl)
	t.Cleanup(func() { osrv.Close() })
	addr := inner.Addr().String()

	cfg.Clock = fb.clock
	cfg.Resolve = func(host string) (string, error) { return addr, nil }
	fb.proxy = New(cfg)
	t.Cleanup(fb.proxy.Close)
	return fb
}

// tripAfter sets p's origin breaker, which its demand and prefetch legs
// share, to trip after failures consecutive failures into a backoff-long
// (jittered) open window. Call it before p sends anything.
func tripAfter(p *Proxy, failures int, backoff time.Duration) {
	p.origin.breaker.failures, p.origin.breaker.backoff = failures, backoff
}

// timeoutAfter caps p's upstream exchanges, demand and prefetch, at d
// instead of the wire's 30 s. Call it before p sends anything.
func timeoutAfter(p *Proxy, d time.Duration) {
	p.origin.client.RequestTimeout, p.prefetch.client.RequestTimeout = d, d
}

func (fb *faultBed) get(ctx context.Context, url string) *httpwire.Response {
	return fb.proxy.ServeWire(ctx, httpwire.NewRequest("GET", "http://"+url))
}

// TestProxyServesStaleOnBlackhole is the acceptance scenario: with the
// upstream blackholed mid-run, a proxy holding an expired entry answers
// within the caller's deadline with the stale copy; after the failure
// threshold the breaker opens and requests stop dialing; once the fault
// clears and the backoff elapses, a half-open probe restores service.
func TestProxyServesStaleOnBlackhole(t *testing.T) {
	fb := newFaultBed(t, Config{Delta: 100})
	timeoutAfter(fb.proxy, 150*time.Millisecond)
	tripAfter(fb.proxy, 3, 50*time.Millisecond)

	// Healthy warm-up fills the cache.
	warm := fb.get(context.Background(), "www.site.com/a/x.html")
	if warm.Status != 200 || warm.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("warm-up: %d %s", warm.Status, warm.Header.Get("X-Cache"))
	}

	// The entry expires, then the origin goes dark.
	fb.advance(200)
	fb.fl.SetFault(&faultconn.Fault{Blackhole: true})
	fb.fl.AbortConns()

	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		start := time.Now()
		resp := fb.get(ctx, "www.site.com/a/x.html")
		cancel()
		if resp.Status != 200 || resp.Header.Get("X-Cache") != "STALE" {
			t.Fatalf("request %d during blackhole: %d %s", i, resp.Status, resp.Header.Get("X-Cache"))
		}
		if w := resp.Header.Get("Warning"); w != `110 - "Response is Stale"` {
			t.Fatalf("request %d Warning = %q", i, w)
		}
		if string(resp.Body) != string(warm.Body) {
			t.Fatalf("request %d stale body differs from cached copy", i)
		}
		if d := time.Since(start); d > 1500*time.Millisecond {
			t.Fatalf("request %d took %v, deadline not honored", i, d)
		}
	}

	st := fb.proxy.Stats()
	if st.StaleServes != 3 {
		t.Fatalf("StaleServes = %d, want 3", st.StaleServes)
	}
	if st.BreakerOpens < 1 || fb.proxy.BreakerOpenHosts() != 1 {
		t.Fatalf("breaker not open after threshold: opens=%d openHosts=%d",
			st.BreakerOpens, fb.proxy.BreakerOpenHosts())
	}

	// Open circuit: requests short-circuit without dialing upstream.
	dialed := fb.fl.Accepted()
	for i := 0; i < 2; i++ {
		resp := fb.get(context.Background(), "www.site.com/a/x.html")
		if resp.Status != 200 || resp.Header.Get("X-Cache") != "STALE" {
			t.Fatalf("short-circuit %d: %d %s", i, resp.Status, resp.Header.Get("X-Cache"))
		}
	}
	if got := fb.fl.Accepted(); got != dialed {
		t.Fatalf("open circuit still dialed: accepted %d -> %d", dialed, got)
	}
	if st := fb.proxy.Stats(); st.BreakerShortCircuits < 2 {
		t.Fatalf("BreakerShortCircuits = %d, want >= 2", st.BreakerShortCircuits)
	}

	// Fault clears; past the (jittered, <= 1.5x) backoff a probe goes
	// through and closes the circuit.
	fb.fl.SetFault(&faultconn.Fault{})
	time.Sleep(150 * time.Millisecond)
	resp := fb.get(context.Background(), "www.site.com/a/x.html")
	if resp.Status != 200 || resp.Header.Get("X-Cache") == "STALE" {
		t.Fatalf("probe after recovery: %d %s", resp.Status, resp.Header.Get("X-Cache"))
	}
	if fb.proxy.BreakerOpenHosts() != 0 {
		t.Fatalf("breaker still open after successful probe: %d hosts", fb.proxy.BreakerOpenHosts())
	}
}

func TestProxyStaleWindowExhausted(t *testing.T) {
	fb := newFaultBed(t, Config{Delta: 10})
	timeoutAfter(fb.proxy, 100*time.Millisecond)
	fb.proxy.maxStale = 50
	if resp := fb.get(context.Background(), "www.site.com/a/x.html"); resp.Status != 200 {
		t.Fatalf("warm-up: %d", resp.Status)
	}
	// Expired at +10, stale window ends at +60; +100 is beyond it.
	fb.advance(100)
	fb.fl.SetFault(&faultconn.Fault{Blackhole: true})
	fb.fl.AbortConns()
	resp := fb.get(context.Background(), "www.site.com/a/x.html")
	if resp.Status != 504 {
		t.Fatalf("beyond stale window: status %d, want 504 (timeout class)", resp.Status)
	}
	if fb.proxy.Stats().StaleServes != 0 {
		t.Fatal("served stale beyond maxStale")
	}
}

func TestProxyCanceledCallerNoStaleNoBreaker(t *testing.T) {
	// A caller that gives up is not upstream failure: no stale serve, no
	// breaker feed.
	fb := newFaultBed(t, Config{Delta: 10})
	tripAfter(fb.proxy, 2, breakerBackoff)
	if resp := fb.get(context.Background(), "www.site.com/a/x.html"); resp.Status != 200 {
		t.Fatalf("warm-up: %d", resp.Status)
	}
	fb.advance(50) // entry expired: a refresh must dial upstream
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 4; i++ {
		resp := fb.get(ctx, "www.site.com/a/x.html")
		if resp.Header.Get("X-Cache") == "STALE" {
			t.Fatalf("request %d: cancellation served stale", i)
		}
		if resp.Status != 502 {
			t.Fatalf("request %d: status %d, want 502", i, resp.Status)
		}
	}
	st := fb.proxy.Stats()
	if st.BreakerOpens != 0 || fb.proxy.BreakerOpenHosts() != 0 {
		t.Fatalf("cancellations tripped the breaker: opens=%d", st.BreakerOpens)
	}
	if st.StaleServes != 0 {
		t.Fatalf("StaleServes = %d, want 0", st.StaleServes)
	}
}

// TestProxyChaosBrownout hammers the proxy concurrently while the origin
// browns out (slow, truncating, dead, and resetting connections drawn from
// a seeded schedule). Run under -race. The proxy must never corrupt the
// cache (every 200 body matches the origin's), and with all entries
// expired every qualifying upstream failure falls back to the stale copy.
func TestProxyChaosBrownout(t *testing.T) {
	fb := newFaultBed(t, Config{Delta: 100})
	timeoutAfter(fb.proxy, 100*time.Millisecond)
	fb.proxy.maxStale = 1 << 30
	tripAfter(fb.proxy, 50, breakerBackoff) // keep traffic flowing through the fault schedule
	urls := []string{"www.site.com/a/x.html", "www.site.com/a/y.gif"}

	// Warm both entries while healthy and record the authoritative bodies.
	want := make(map[string]string)
	for _, u := range urls {
		resp := fb.get(context.Background(), u)
		if resp.Status != 200 {
			t.Fatalf("warm-up %s: %d", u, resp.Status)
		}
		want[u] = string(resp.Body)
	}
	fb.advance(200) // everything expired: failures must degrade to STALE

	fb.fl.SetProfile(faultconn.Brownout)
	fb.fl.AbortConns()

	const workers = 4
	const perWorker = 30
	var bad atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if i%5 == 4 {
					// Cut live connections so the pool redials through
					// the fault schedule instead of riding one lucky
					// healthy connection.
					fb.fl.AbortConns()
				}
				// Advance past Delta so refreshed entries expire again and
				// every round exercises the upstream (or degrade) path.
				fb.advance(150)
				u := urls[(w+i)%len(urls)]
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				resp := fb.get(ctx, u)
				cancel()
				switch resp.Status {
				case 200:
					if string(resp.Body) != want[u] {
						bad.Add(1)
						t.Errorf("corrupt body for %s (X-Cache=%s): %d bytes",
							u, resp.Header.Get("X-Cache"), len(resp.Body))
					}
				case 502, 504:
					// acceptable degradation when no stale copy applies
				default:
					bad.Add(1)
					t.Errorf("unexpected status %d for %s", resp.Status, u)
				}
			}
		}(w)
	}
	wg.Wait()

	if bad.Load() > 0 {
		t.Fatalf("%d corrupted or invalid responses", bad.Load())
	}
	st := fb.proxy.Stats()
	if st.StaleServes == 0 {
		t.Error("brownout produced no stale fallbacks — fault injection not reaching the proxy")
	}
	if st.UpstreamErrors == 0 {
		t.Error("brownout produced no upstream errors")
	}
	t.Logf("chaos: %d stale serves, %d upstream errors, %d validations, breaker opens %d",
		st.StaleServes, st.UpstreamErrors, st.Validations, st.BreakerOpens)
}

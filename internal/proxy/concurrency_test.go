package proxy

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"piggyback/internal/httpwire"
)

// startOrigin runs a raw httpwire handler as the upstream origin and
// returns its address.
func startOrigin(t *testing.T, h httpwire.Handler) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &httpwire.Server{Handler: h}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String()
}

func proxyGet(p *Proxy, url string) *httpwire.Response {
	return p.ServeWire(context.Background(), httpwire.NewRequest("GET", "http://"+url))
}

// TestServeWireConcurrentHammer is the -race regression test for the
// hot-path race: before the fix, ServeWire read entry.Body after
// releasing p.mu, while concurrent Puts (from other goroutines' 200
// handling) rewrote the same entry. One key is hammered by many
// goroutines with a fast-running clock so every request finds a stale
// copy, validates upstream, and rewrites the cache.
// TestStaleReadRacesWithConcurrentRewrite deterministically overlaps one
// request's upstream exchange with a rewrite of the same cache entry.
// The victim request is parked inside the test's Resolve hook — which
// runs in the unlocked span of ServeWire, after the cached body has been
// captured for delta encoding — purely on wall-clock time, with no
// channel or mutex handoff that would order the accesses for the race
// detector. While the victim sleeps, the main goroutine re-fetches the
// same key, and its cache.Put rewrites the entry the victim captured.
// Before the fix, the victim read entry.Body after releasing p.mu, so
// this test fails under -race; with the body copied under the lock it is
// race-free.
func TestStaleReadRacesWithConcurrentRewrite(t *testing.T) {
	var version atomic.Int64
	origin := startOrigin(t, httpwire.HandlerFunc(func(_ context.Context, req *httpwire.Request) *httpwire.Response {
		v := version.Add(1)
		resp := httpwire.NewResponse(200)
		resp.Body = []byte(fmt.Sprintf("rewrite-version-%06d", v))
		resp.Header.Set("Last-Modified", httpwire.FormatHTTPDate(1000+v))
		return resp
	}))

	// Timing, not synchronization, sequences the two requests: any
	// channel or lock handoff from the victim after its racy read would
	// give the rewriter a happens-before edge and hide the race.
	var parkFrom time.Time // written by main between requests only
	parked := false        // written by the victim, read after it is joined
	var now atomic.Int64
	now.Store(1_000_000)
	p := New(Config{
		Delta:         60,
		DeltaEncoding: true,
		Clock:         func() int64 { return now.Add(10_000) },
		Resolve: func(string) (string, error) {
			if !parkFrom.IsZero() {
				if since := time.Since(parkFrom); since < 100*time.Millisecond {
					parked = true
					time.Sleep(600*time.Millisecond - since)
				}
			}
			return origin, nil
		},
	})
	defer p.Close()

	const key = "www.park.test/hot.html"
	if resp := proxyGet(p, key); resp.Status != 200 {
		t.Fatalf("prime: status %d", resp.Status)
	}

	parkFrom = time.Now()
	victimDone := make(chan *httpwire.Response, 1)
	go func() { victimDone <- proxyGet(p, key) }()

	// The victim is asleep in Resolve holding its captured cache state.
	// Rewrite the entry underneath it; its Resolve call falls outside
	// the park window and proceeds immediately.
	time.Sleep(200 * time.Millisecond)
	if resp := proxyGet(p, key); resp.Status != 200 {
		t.Fatalf("rewrite: status %d", resp.Status)
	}

	resp := <-victimDone
	if resp.Status != 200 {
		t.Errorf("victim: status %d", resp.Status)
	}
	if !parked {
		t.Fatal("victim request never parked in Resolve; race window not exercised")
	}
}

func TestServeWireConcurrentHammer(t *testing.T) {
	var version atomic.Int64
	origin := startOrigin(t, httpwire.HandlerFunc(func(_ context.Context, req *httpwire.Request) *httpwire.Response {
		v := version.Add(1)
		resp := httpwire.NewResponse(200)
		resp.Body = []byte(fmt.Sprintf("body-version-%06d", v))
		resp.Header.Set("Last-Modified", httpwire.FormatHTTPDate(1000+v))
		return resp
	}))

	// Each Clock call jumps far past the freshness interval, so every
	// request sees its cached copy as stale and goes upstream.
	var now atomic.Int64
	now.Store(1_000_000)
	p := New(Config{
		Delta:         60,
		DeltaEncoding: true, // exercises the cachedBody path too
		Clock:         func() int64 { return now.Add(10_000) },
		Resolve:       func(string) (string, error) { return origin, nil },
	})
	defer p.Close()

	const goroutines, perG = 16, 150
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				resp := proxyGet(p, "www.hammer.test/hot.html")
				if resp.Status != 200 {
					t.Errorf("hammer: status %d", resp.Status)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s := p.Stats(); s.ClientRequests != goroutines*perG {
		t.Errorf("client requests = %d, want %d", s.ClientRequests, goroutines*perG)
	}
}

// TestSingleFlightDeduplicatesMisses checks that N concurrent requests
// for one cold key cost one origin fetch: a leader fetches while the
// rest wait on its flight and share the response.
func TestSingleFlightDeduplicatesMisses(t *testing.T) {
	var originReqs atomic.Int64
	leaderIn := make(chan struct{}, 1)
	release := make(chan struct{})
	origin := startOrigin(t, httpwire.HandlerFunc(func(_ context.Context, req *httpwire.Request) *httpwire.Response {
		originReqs.Add(1)
		leaderIn <- struct{}{}
		<-release
		resp := httpwire.NewResponse(200)
		resp.Body = []byte("cold body")
		resp.Header.Set("Last-Modified", httpwire.FormatHTTPDate(5000))
		return resp
	}))

	p := New(Config{
		Delta:   600,
		Clock:   func() int64 { return 10_000 },
		Resolve: func(string) (string, error) { return origin, nil },
	})
	defer p.Close()

	const clients = 8
	// Start the leader and wait until its request is inside the origin,
	// then pile on the followers; they must all join the leader's flight.
	results := make(chan *httpwire.Response, clients)
	go func() { results <- proxyGet(p, "www.sf.test/cold.html") }()
	<-leaderIn

	var started sync.WaitGroup
	for i := 1; i < clients; i++ {
		started.Add(1)
		go func() {
			started.Done()
			results <- proxyGet(p, "www.sf.test/cold.html")
		}()
	}
	started.Wait()
	time.Sleep(20 * time.Millisecond) // let followers reach the flight
	close(release)

	shared := 0
	for i := 0; i < clients; i++ {
		resp := <-results
		if resp.Status != 200 || string(resp.Body) != "cold body" {
			t.Fatalf("response %d: %d %q", i, resp.Status, resp.Body)
		}
		if resp.Header.Get("X-Cache") == "SHARED" {
			shared++
		}
	}
	if got := originReqs.Load(); got != 1 {
		t.Errorf("%d concurrent cold requests cost %d origin fetches, want 1", clients, got)
	}
	if shared != clients-1 {
		t.Errorf("shared responses = %d, want %d", shared, clients-1)
	}
	if s := p.Stats(); s.SingleflightShared != clients-1 {
		t.Errorf("Stats.SingleflightShared = %d, want %d", s.SingleflightShared, clients-1)
	}
}

// TestUnexpectedConditionalStatusMapsTo502 covers the wire-framing bugfix:
// an origin answering a plain GET with 304 or 226 (statuses only valid for
// conditional requests) must not be passed through to the client, by the
// miss path or by a prefetch a client joined.
func TestUnexpectedConditionalStatusMapsTo502(t *testing.T) {
	for _, status := range []int{304, 226} {
		t.Run(fmt.Sprintf("status%d", status), func(t *testing.T) {
			parked := make(chan struct{}, 1)
			release := make(chan struct{})
			origin := startOrigin(t, httpwire.HandlerFunc(func(_ context.Context, req *httpwire.Request) *httpwire.Response {
				if req.Header.Has("If-Modified-Since") {
					t.Errorf("unconditional request carried If-Modified-Since")
				}
				if isPrefetch(req) {
					parked <- struct{}{}
					<-release
				}
				resp := httpwire.NewResponse(status)
				if status == 226 {
					resp.Header.Set("IM", "blockdiff")
					resp.Body = []byte("not a real patch")
				}
				return resp
			}))
			p := New(Config{
				Delta:   600,
				Clock:   func() int64 { return 10_000 },
				Resolve: func(string) (string, error) { return origin, nil },
			})
			defer p.Close()

			resp := proxyGet(p, "www.confused.test/cold.html")
			if resp.Status != 502 {
				t.Fatalf("origin %d for plain GET passed through as %d, want 502", status, resp.Status)
			}
			// The bogus response must not have been cached.
			resp2 := proxyGet(p, "www.confused.test/cold.html")
			if resp2.Status != 502 || resp2.Header.Get("X-Cache") == "HIT" {
				t.Fatalf("second request: %d %s", resp2.Status, resp2.Header.Get("X-Cache"))
			}
			// A prefetch is answered the same way: a client joined to its
			// flight shares the 502, and nothing is cached.
			p.queue.Push(FetchItem{Host: "www.confused.test", URL: "/cold.html", Size: 10})
			drained := make(chan int, 1)
			go func() { drained <- p.DrainPrefetchesContext(context.Background(), 1) }()
			<-parked
			joined := make(chan *httpwire.Response, 1)
			go func() { joined <- proxyGet(p, "www.confused.test/cold.html") }()
			time.Sleep(20 * time.Millisecond) // let the client reach the flight
			close(release)
			if n := <-drained; n != 0 {
				t.Errorf("prefetch answered %d counted as fetched (%d), want 0", status, n)
			}
			if out := <-joined; out.Status != 502 || out.Header.Get("X-Cache") != "SHARED" {
				t.Errorf("client joined to a prefetch answered %d: %d %s, want 502 SHARED",
					status, out.Status, out.Header.Get("X-Cache"))
			}
			if s := p.Stats(); s.UpstreamErrors != 3 || s.Prefetches != 0 {
				t.Errorf("upstream errors = %d, prefetches = %d, want 3, 0", s.UpstreamErrors, s.Prefetches)
			}
		})
	}
}

// TestStaleValidationServesValidatedCopy pins the 304 arm to the copy that
// was actually validated: when a concurrent fetch replaces the entry
// between unlock and re-lock, the validated body is served, not a torn
// pointer into the cache.
func TestStaleValidationServesValidatedCopy(t *testing.T) {
	var mode atomic.Int64 // 0: serve v1; 1: 304 everything
	origin := startOrigin(t, httpwire.HandlerFunc(func(_ context.Context, req *httpwire.Request) *httpwire.Response {
		if mode.Load() == 1 && req.Header.Has("If-Modified-Since") {
			return httpwire.NewResponse(304)
		}
		resp := httpwire.NewResponse(200)
		resp.Body = []byte("validated body v1")
		resp.Header.Set("Last-Modified", httpwire.FormatHTTPDate(2000))
		return resp
	}))
	var now atomic.Int64
	now.Store(10_000)
	p := New(Config{
		Delta:   600,
		Clock:   func() int64 { return now.Load() },
		Resolve: func(string) (string, error) { return origin, nil },
	})
	defer p.Close()

	if resp := proxyGet(p, "www.v.test/page.html"); string(resp.Body) != "validated body v1" {
		t.Fatalf("prime: %q", resp.Body)
	}
	mode.Store(1)
	now.Store(11_000) // past Delta: stale, must validate
	resp := proxyGet(p, "www.v.test/page.html")
	if resp.Status != 200 || string(resp.Body) != "validated body v1" {
		t.Fatalf("revalidated: %d %q", resp.Status, resp.Body)
	}
	if s := p.Stats(); s.NotModified != 1 {
		t.Errorf("not modified = %d, want 1", s.NotModified)
	}
}

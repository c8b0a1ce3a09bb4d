package proxy

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"piggyback/internal/core"
	"piggyback/internal/httpwire"
)

// TestDrainPrefetchJoinsClientMissFlight pins the Peek-then-fetch fix:
// a prefetch drain and a client miss racing on one cold key must cost one
// origin exchange, with the client served from the drain's flight.
func TestDrainPrefetchJoinsClientMissFlight(t *testing.T) {
	var originReqs atomic.Int64
	leaderIn := make(chan struct{}, 1)
	release := make(chan struct{})
	origin := startOrigin(t, httpwire.HandlerFunc(func(_ context.Context, req *httpwire.Request) *httpwire.Response {
		originReqs.Add(1)
		leaderIn <- struct{}{}
		<-release
		resp := httpwire.NewResponse(200)
		resp.Body = []byte("prefetched body")
		resp.Header.Set("Last-Modified", httpwire.FormatHTTPDate(5000))
		resp.Header.Set("Content-Type", "text/html")
		return resp
	}))

	p := New(Config{
		Delta:    600,
		Prefetch: true,
		Clock:    func() int64 { return 10_000 },
		Resolve:  func(string) (string, error) { return origin, nil },
	})
	defer p.Close()

	p.queue.Push(FetchItem{Host: "www.pf.test", URL: "/cold.html", Size: 15})

	// The drain becomes the flight leader and parks inside the origin.
	drained := make(chan int, 1)
	go func() { drained <- p.DrainPrefetchesContext(context.Background(), 1) }()
	<-leaderIn

	// A client miss for the same key arrives while the drain's fetch is
	// in flight: it must join the flight, not fetch again.
	clientDone := make(chan *httpwire.Response, 1)
	go func() { clientDone <- proxyGet(p, "www.pf.test/cold.html") }()
	time.Sleep(20 * time.Millisecond) // let the client reach the flight
	close(release)

	if got := <-drained; got != 1 {
		t.Fatalf("drain fetched %d, want 1", got)
	}
	resp := <-clientDone
	if resp.Status != 200 || string(resp.Body) != "prefetched body" {
		t.Fatalf("client: %d %q", resp.Status, resp.Body)
	}
	if resp.Header.Get("X-Cache") != "SHARED" {
		t.Fatalf("client X-Cache = %q, want SHARED", resp.Header.Get("X-Cache"))
	}
	if got := originReqs.Load(); got != 1 {
		t.Fatalf("drain + racing miss cost %d origin fetches, want 1", got)
	}
	s := p.Stats()
	if s.Prefetches != 1 || s.MissFetches != 0 || s.SingleflightShared != 1 {
		t.Fatalf("stats: prefetches=%d missFetches=%d shared=%d, want 1/0/1",
			s.Prefetches, s.MissFetches, s.SingleflightShared)
	}

	// The next client request hits the prefetched entry and counts it
	// useful exactly once.
	resp = proxyGet(p, "www.pf.test/cold.html")
	if resp.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("follow-up X-Cache = %q, want HIT", resp.Header.Get("X-Cache"))
	}
	if s := p.Stats(); s.UsefulPrefetches != 1 {
		t.Fatalf("useful prefetches = %d, want 1", s.UsefulPrefetches)
	}
}

// TestDrainSkipsKeyAlreadyInFlight covers the mirror ordering: a client
// miss is already fetching when the drain reaches the same key — the drain
// must wait on that flight and issue no fetch of its own.
func TestDrainSkipsKeyAlreadyInFlight(t *testing.T) {
	var originReqs atomic.Int64
	leaderIn := make(chan struct{}, 1)
	release := make(chan struct{})
	origin := startOrigin(t, httpwire.HandlerFunc(func(_ context.Context, req *httpwire.Request) *httpwire.Response {
		originReqs.Add(1)
		leaderIn <- struct{}{}
		<-release
		resp := httpwire.NewResponse(200)
		resp.Body = []byte("client body")
		resp.Header.Set("Last-Modified", httpwire.FormatHTTPDate(5000))
		return resp
	}))

	p := New(Config{
		Delta:    600,
		Prefetch: true,
		Clock:    func() int64 { return 10_000 },
		Resolve:  func(string) (string, error) { return origin, nil },
	})
	defer p.Close()

	clientDone := make(chan *httpwire.Response, 1)
	go func() { clientDone <- proxyGet(p, "www.pf2.test/cold.html") }()
	<-leaderIn

	p.queue.Push(FetchItem{Host: "www.pf2.test", URL: "/cold.html", Size: 11})
	drained := make(chan int, 1)
	go func() { drained <- p.DrainPrefetchesContext(context.Background(), 1) }()
	time.Sleep(20 * time.Millisecond) // let the drain reach the flight
	close(release)

	if got := <-drained; got != 0 {
		t.Fatalf("drain fetched %d for an in-flight key, want 0", got)
	}
	if resp := <-clientDone; resp.Status != 200 {
		t.Fatalf("client: %d", resp.Status)
	}
	if got := originReqs.Load(); got != 1 {
		t.Fatalf("origin fetches = %d, want 1", got)
	}
	if s := p.Stats(); s.Prefetches != 0 {
		t.Fatalf("prefetches = %d, want 0", s.Prefetches)
	}
}

// TestProxyServesContentType pins the Content-Type satellite end to end:
// the header the origin sent comes back on the miss, on fresh hits, and on
// 304-validated responses served from the cached copy.
func TestProxyServesContentType(t *testing.T) {
	const ct = "text/html; charset=utf-8"
	var validate atomic.Bool
	origin := startOrigin(t, httpwire.HandlerFunc(func(_ context.Context, req *httpwire.Request) *httpwire.Response {
		if validate.Load() && req.Header.Has("If-Modified-Since") {
			return httpwire.NewResponse(304)
		}
		resp := httpwire.NewResponse(200)
		resp.Body = []byte("<html>hi</html>")
		resp.Header.Set("Last-Modified", httpwire.FormatHTTPDate(2000))
		resp.Header.Set("Content-Type", ct)
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

	const key = "www.ct.test/page.html"
	if resp := proxyGet(p, key); resp.Header.Get("Content-Type") != ct {
		t.Fatalf("miss Content-Type = %q, want %q", resp.Header.Get("Content-Type"), ct)
	}
	resp := proxyGet(p, key)
	if resp.Header.Get("X-Cache") != "HIT" || resp.Header.Get("Content-Type") != ct {
		t.Fatalf("hit: X-Cache=%q Content-Type=%q", resp.Header.Get("X-Cache"), resp.Header.Get("Content-Type"))
	}
	validate.Store(true)
	now.Store(11_000) // past Delta: stale, must validate
	resp = proxyGet(p, key)
	if resp.Status != 200 || resp.Header.Get("Content-Type") != ct {
		t.Fatalf("304-validated: status=%d Content-Type=%q, want 200 %q",
			resp.Status, resp.Header.Get("Content-Type"), ct)
	}
	if s := p.Stats(); s.NotModified != 1 {
		t.Fatalf("not modified = %d, want 1", s.NotModified)
	}
}

// TestHitsDroppedBeyondPerHostBound covers the hits_dropped satellite: fresh
// hits past the 32-path per-host reporting bound are dropped and counted,
// and the next upstream request carries exactly the buffered 32.
func TestHitsDroppedBeyondPerHostBound(t *testing.T) {
	origin := startOrigin(t, httpwire.HandlerFunc(func(_ context.Context, req *httpwire.Request) *httpwire.Response {
		resp := httpwire.NewResponse(200)
		resp.Body = []byte("x")
		resp.Header.Set("Last-Modified", httpwire.FormatHTTPDate(2000))
		return resp
	}))
	p := New(Config{
		Delta:   600,
		Clock:   func() int64 { return 10_000 },
		Resolve: func(string) (string, error) { return origin, nil },
	})
	defer p.Close()

	const host = "www.drop.test"
	const paths = maxPendingHits + 8
	for i := 0; i < paths; i++ {
		proxyGet(p, fmt.Sprintf("%s/p%02d.html", host, i)) // warm: misses
	}
	for i := 0; i < paths; i++ {
		resp := proxyGet(p, fmt.Sprintf("%s/p%02d.html", host, i))
		if resp.Header.Get("X-Cache") != "HIT" {
			t.Fatalf("path %d not a fresh hit", i)
		}
	}
	s := p.Stats()
	if s.HitsDropped != paths-maxPendingHits {
		t.Fatalf("hits dropped = %d, want %d", s.HitsDropped, paths-maxPendingHits)
	}
	if got := p.Obs().Snapshot().Counter("proxy.hits_dropped"); got != int64(paths-maxPendingHits) {
		t.Fatalf("proxy.hits_dropped counter = %d, want %d", got, paths-maxPendingHits)
	}
	// The next miss to the host drains the buffered 32 onto its request.
	proxyGet(p, host+"/fresh-path.html")
	if s := p.Stats(); s.HitsReported != maxPendingHits {
		t.Fatalf("hits reported = %d, want %d", s.HitsReported, maxPendingHits)
	}
}

// TestProxyMixedConcurrentHammer is the tentpole's -race workout: parallel
// clients over a shared key space (fresh hits, stale validations, cold
// misses), origin responses carrying P-Volume trailers that refresh,
// invalidate, and seed prefetches, concurrent prefetch drains, and stats
// readers — all against the sharded cache with no proxy-global lock.
func TestProxyMixedConcurrentHammer(t *testing.T) {
	const keys = 30
	var originReqs atomic.Int64
	origin := startOrigin(t, httpwire.HandlerFunc(func(_ context.Context, req *httpwire.Request) *httpwire.Response {
		n := originReqs.Add(1)
		if req.Header.Has("If-Modified-Since") && n%2 == 0 {
			return httpwire.NewResponse(304)
		}
		resp := httpwire.NewResponse(200)
		resp.Body = []byte("body-" + req.Path)
		resp.Header.Set("Last-Modified", httpwire.FormatHTTPDate(1000))
		resp.Header.Set("Content-Type", "text/plain")
		// Piggyback three elements: one refresh (old Last-Modified), one
		// invalidation (newer), one likely-uncached prefetch seed.
		httpwire.AttachPiggyback(resp, core.Message{Volume: 1, Elements: []core.Element{
			{URL: fmt.Sprintf("/r%02d.html", n%keys), LastModified: 500, Size: 40},
			{URL: fmt.Sprintf("/r%02d.html", (n+7)%keys), LastModified: 2000, Size: 40},
			{URL: fmt.Sprintf("/x%02d.html", n%11), LastModified: 900, Size: 20},
		}})
		return resp
	}))

	var now atomic.Int64
	now.Store(10_000)
	p := New(Config{
		Delta:    600,
		Prefetch: true,
		// Each call advances the clock, so entries cycle fresh -> stale
		// over the run and the mix covers hits, validations, and misses.
		Clock:   func() int64 { return now.Add(3) },
		Resolve: func(string) (string, error) { return origin, nil },
	})
	defer p.Close()

	const clients, perC = 8, 200
	done := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perC; i++ {
				url := fmt.Sprintf("www.mix.test/r%02d.html", (c*7+i)%keys)
				if resp := proxyGet(p, url); resp.Status != 200 {
					t.Errorf("client %d: status %d for %s", c, resp.Status, url)
					return
				}
			}
		}(c)
	}
	// Two drain workers and a stats reader run until the clients finish.
	var aux sync.WaitGroup
	for d := 0; d < 2; d++ {
		aux.Add(1)
		go func() {
			defer aux.Done()
			for {
				select {
				case <-done:
					return
				default:
					p.DrainPrefetchesContext(context.Background(), 4)
					runtime.Gosched()
				}
			}
		}()
	}
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = p.Stats()
				_ = p.CacheStats().HitRate()
				_ = p.Obs().Snapshot()
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	close(done)
	aux.Wait()

	s := p.Stats()
	if s.ClientRequests != clients*perC {
		t.Errorf("client requests = %d, want %d", s.ClientRequests, clients*perC)
	}
	if s.FreshHits == 0 || s.PiggybacksReceived == 0 || s.Invalidations == 0 {
		t.Errorf("hammer missed a mode: hits=%d piggybacks=%d invalidations=%d",
			s.FreshHits, s.PiggybacksReceived, s.Invalidations)
	}
}

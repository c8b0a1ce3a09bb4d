package proxy

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"piggyback/internal/faultconn"
	"piggyback/internal/httpwire"
)

// eofListener remembers, per accepted connection's remote address, a
// channel closed when the origin side reads EOF on it — the proxy closed
// its end.
type eofListener struct {
	net.Listener
	mu  sync.Mutex
	eof map[string]chan struct{}
}

func (l *eofListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	ch := make(chan struct{})
	l.mu.Lock()
	l.eof[c.RemoteAddr().String()] = ch
	l.mu.Unlock()
	return &eofConn{Conn: c, eof: ch}, nil
}

// eofSeen returns the EOF channel of the connection from addr.
func (l *eofListener) eofSeen(addr string) chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.eof[addr]
}

type eofConn struct {
	net.Conn
	once sync.Once
	eof  chan struct{}
}

func (c *eofConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if errors.Is(err, io.EOF) {
		c.once.Do(func() { close(c.eof) })
	}
	return n, err
}

// startEOFOrigin is startOrigin over an eofListener.
func startEOFOrigin(t *testing.T, h httpwire.Handler) (string, *eofListener) {
	t.Helper()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &eofListener{Listener: inner, eof: make(map[string]chan struct{})}
	srv := &httpwire.Server{Handler: h}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return inner.Addr().String(), l
}

// isPrefetch reports whether req is a speculative fetch: the proxy sends
// those with piggybacking disabled.
func isPrefetch(req *httpwire.Request) bool {
	f, ok := httpwire.GetFilter(req)
	return ok && f.Disabled
}

func okResponse(body string) *httpwire.Response {
	resp := httpwire.NewResponse(200)
	resp.Body = []byte(body)
	resp.Header.Set("Last-Modified", httpwire.FormatHTTPDate(5000))
	return resp
}

// TestDemandNeverQueuesBehindPrefetch parks a prefetch inside the origin
// and sends a client miss for another key: the miss must complete while
// the prefetch is still parked, over a connection of its own.
func TestDemandNeverQueuesBehindPrefetch(t *testing.T) {
	parked := make(chan struct{}, 1)
	release := make(chan struct{})
	var mu sync.Mutex
	remotes := make(map[string]bool)
	origin := startOrigin(t, httpwire.HandlerFunc(func(_ context.Context, req *httpwire.Request) *httpwire.Response {
		mu.Lock()
		remotes[req.RemoteAddr] = true
		mu.Unlock()
		if isPrefetch(req) {
			parked <- struct{}{}
			<-release
		}
		return okResponse("body of " + req.Path)
	}))

	p := New(Config{
		Delta:    600,
		Prefetch: true,
		Clock:    func() int64 { return 10_000 },
		Resolve:  func(string) (string, error) { return origin, nil },
	})
	defer p.Close()
	var releaseOnce sync.Once
	unpark := func() { releaseOnce.Do(func() { close(release) }) }
	defer unpark() // before the origin's cleanup, which waits for its handlers

	p.queue.Push(FetchItem{Host: "www.q.test", URL: "/speculative.html", Size: 10})
	drained := make(chan int, 1)
	go func() { drained <- p.DrainPrefetchesContext(context.Background(), 1) }()
	<-parked

	demand := make(chan *httpwire.Response, 1)
	go func() { demand <- proxyGet(p, "www.q.test/demand.html") }()
	select {
	case resp := <-demand:
		if resp.Status != 200 || resp.Header.Get("X-Cache") != "MISS" {
			t.Fatalf("demand miss: %d %s", resp.Status, resp.Header.Get("X-Cache"))
		}
	case <-time.After(time.Second):
		t.Fatal("demand miss still waiting after 1s behind a parked prefetch")
	}

	unpark()
	if n := <-drained; n != 1 {
		t.Fatalf("drain fetched %d, want 1", n)
	}
	mu.Lock()
	distinct := len(remotes)
	mu.Unlock()
	if distinct != 2 {
		t.Fatalf("origin saw %d client connections, want 2 (one demand, one speculative)", distinct)
	}
	s := p.Obs().Snapshot()
	if got := s.Counter("wire.prefetch.requests"); got != 1 {
		t.Errorf("wire.prefetch.requests = %d, want 1", got)
	}
	if got := s.Counter("wire.upstream.requests"); got != 1 {
		t.Errorf("wire.upstream.requests = %d, want 1", got)
	}
}

// TestPrefetchSharesOriginBreaker checks that host health is one state for
// both origin legs: demand failures open a circuit that then refuses
// prefetches without dialing, and prefetch failures open a circuit that
// then refuses demand.
func TestPrefetchSharesOriginBreaker(t *testing.T) {
	cfg := Config{
		Delta:           100,
		Prefetch:        true,
		MaxStaleOnError: -1,
	}
	const failures = 2

	t.Run("demand failures refuse prefetches", func(t *testing.T) {
		fb := newFaultBed(t, cfg)
		tripAfter(fb.proxy, failures, time.Minute)
		fb.fl.SetFault(&faultconn.Fault{Reset: true})
		for i := 0; i < failures; i++ {
			if resp := fb.get(context.Background(), "www.site.com/a/x.html"); resp.Status != 502 {
				t.Fatalf("miss %d against a resetting origin: %d, want 502", i, resp.Status)
			}
		}
		if fb.proxy.BreakerOpenHosts() != 1 {
			t.Fatalf("circuit not open after %d demand failures", failures)
		}
		accepted := fb.fl.Accepted()
		fb.proxy.queue.Push(FetchItem{Host: "www.site.com", URL: "/a/y.gif", Size: 200})
		if n := fb.proxy.DrainPrefetchesContext(context.Background(), 1); n != 0 {
			t.Fatalf("drain fetched %d through an open circuit, want 0", n)
		}
		if got := fb.fl.Accepted(); got != accepted {
			t.Fatalf("open circuit still dialed for a prefetch: accepted %d -> %d", accepted, got)
		}
		s := fb.proxy.Obs().Snapshot()
		if got := s.Counter("wire.prefetch.err.circuit_open"); got != 1 {
			t.Fatalf("wire.prefetch.err.circuit_open = %d, want 1", got)
		}
		if got := s.Counter("wire.prefetch.dials"); got != 0 {
			t.Fatalf("wire.prefetch.dials = %d, want 0", got)
		}
	})

	t.Run("prefetch failures refuse demand", func(t *testing.T) {
		fb := newFaultBed(t, cfg)
		tripAfter(fb.proxy, failures, time.Minute)
		fb.fl.SetFault(&faultconn.Fault{Reset: true})
		fb.proxy.queue.Push(FetchItem{Host: "www.site.com", URL: "/a/x.html", Size: 400})
		fb.proxy.queue.Push(FetchItem{Host: "www.site.com", URL: "/a/y.gif", Size: 200})
		if n := fb.proxy.DrainPrefetchesContext(context.Background(), 2); n != 0 {
			t.Fatalf("drain fetched %d from a resetting origin, want 0", n)
		}
		if fb.proxy.BreakerOpenHosts() != 1 {
			t.Fatalf("circuit not open after %d prefetch failures", failures)
		}
		accepted := fb.fl.Accepted()
		if resp := fb.get(context.Background(), "www.site.com/a/x.html"); resp.Status != 502 {
			t.Fatalf("miss through the open circuit: %d, want 502", resp.Status)
		}
		if got := fb.fl.Accepted(); got != accepted {
			t.Fatalf("open circuit still dialed for a miss: accepted %d -> %d", accepted, got)
		}
		if got := fb.proxy.Obs().Snapshot().Counter("wire.upstream.err.circuit_open"); got != 1 {
			t.Fatalf("wire.upstream.err.circuit_open = %d, want 1", got)
		}
	})
}

// TestCloseReleasesPrefetchConnection checks that Close shuts the
// speculative connection: its gauge reads 0, the origin reads EOF on it,
// and no goroutine the proxy caused outlives it.
func TestCloseReleasesPrefetchConnection(t *testing.T) {
	prefetchFrom := make(chan string, 1)
	origin, l := startEOFOrigin(t, httpwire.HandlerFunc(func(_ context.Context, req *httpwire.Request) *httpwire.Response {
		if isPrefetch(req) {
			prefetchFrom <- req.RemoteAddr
		}
		return okResponse("prefetched")
	}))
	before := runtime.NumGoroutine()

	p := New(Config{
		Delta:    600,
		Prefetch: true,
		Clock:    func() int64 { return 10_000 },
		Resolve:  func(string) (string, error) { return origin, nil },
	})
	p.queue.Push(FetchItem{Host: "www.c.test", URL: "/p.html", Size: 10})
	if n := p.DrainPrefetchesContext(context.Background(), 1); n != 1 {
		t.Fatalf("drain fetched %d, want 1", n)
	}
	if got := p.Obs().Snapshot().Counter("wire.prefetch.conns_open"); got != 1 {
		t.Fatalf("wire.prefetch.conns_open = %d before Close, want 1", got)
	}
	eof := l.eofSeen(<-prefetchFrom)

	p.Close()
	if got := p.Obs().Snapshot().Counter("wire.prefetch.conns_open"); got != 0 {
		t.Fatalf("wire.prefetch.conns_open = %d after Close, want 0", got)
	}
	select {
	case <-eof:
	case <-time.After(2 * time.Second):
		t.Fatal("origin never read EOF on the speculative connection")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

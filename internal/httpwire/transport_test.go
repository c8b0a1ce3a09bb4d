package httpwire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"piggyback/internal/core"
	"piggyback/internal/faultconn"
	"piggyback/internal/httpwire/wireerr"
	"piggyback/internal/obs"
)

// eachInflight runs f once per connection capacity the transport is used
// at: one exchange per connection (the default, and what a pool is) and
// four (the proxy's origin leg). Behaviour both share is tested at both.
func eachInflight(t *testing.T, f func(t *testing.T, inflight int)) {
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("inflight=%d", k), func(t *testing.T) { f(t, k) })
	}
}

// newTestClient returns a client carrying inflight exchanges per
// connection, with metrics attached.
func newTestClient(inflight int) *Client {
	c := NewClient()
	c.MaxInflightPerConn = inflight
	c.Obs = obs.NewWireMetrics(obs.NewRegistry(), "wire.test")
	return c
}

func listenLoopback(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// trackingListener remembers the connections it accepted, so that a test
// can close them from the server's side, as a server timing out an idle
// persistent connection does.
type trackingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *trackingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, conn)
		l.mu.Unlock()
	}
	return conn, err
}

func (l *trackingListener) accepted() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.conns)
}

func (l *trackingListener) closeConns() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, conn := range l.conns {
		conn.Close()
	}
}

// startTrackedServer runs a Server whose accepted connections the test can
// count and close.
func startTrackedServer(t *testing.T, h Handler) *trackingListener {
	t.Helper()
	l := &trackingListener{Listener: listenLoopback(t)}
	srv := &Server{Handler: h}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l
}

// gate is a handler that counts the requests it has received and holds
// each until the gate opens or the server closes; paths under /free pass
// at once.
type gate struct {
	seen    atomic.Int32
	release chan struct{}
	once    sync.Once
}

func newGate() *gate { return &gate{release: make(chan struct{})} }

func (g *gate) open() { g.once.Do(func() { close(g.release) }) }

func (g *gate) ServeWire(ctx context.Context, req *Request) *Response {
	g.seen.Add(1)
	if len(req.Path) < 5 || req.Path[:5] != "/free" {
		select {
		case <-g.release:
		case <-ctx.Done():
		}
	}
	return echoHandler(ctx, req)
}

type outcome struct {
	resp *Response
	err  error
}

// doAsync starts one DoContext and delivers its outcome.
func doAsync(ctx context.Context, c *Client, addr, path string) <-chan outcome {
	ch := make(chan outcome, 1)
	go func() {
		resp, err := c.DoContext(ctx, addr, NewRequest("GET", path))
		ch <- outcome{resp, err}
	}()
	return ch
}

func TestTransportRetriesServerClosedConn(t *testing.T) {
	eachInflight(t, func(t *testing.T, k int) {
		l := startTrackedServer(t, HandlerFunc(echoHandler))
		addr := l.Addr().String()
		c := newTestClient(k)
		defer c.Close()
		if _, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/a")); err != nil {
			t.Fatal(err)
		}
		// The server drops the idle connection behind the client's back.
		l.closeConns()
		resp, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/b"))
		if err != nil || string(resp.Body) != "echo:/b" {
			t.Fatalf("retry on server-closed connection failed: %v", err)
		}
		if got := c.Obs.Retries.Load(); got != 1 {
			t.Errorf("retries = %d, want 1", got)
		}
		if got := c.Obs.Dials.Load(); got != 2 {
			t.Errorf("dials = %d, want 2 (original + replacement)", got)
		}
		if got := c.Obs.ConnsOpen.Load(); got != 1 {
			t.Errorf("conns_open = %d, want 1 after the dead conn was dropped", got)
		}
		// A batch is retried the same way.
		l.closeConns()
		resps, err := c.DoAllContext(context.Background(), addr, []*Request{NewRequest("GET", "/x"), NewRequest("GET", "/y")})
		if err != nil || len(resps) != 2 {
			t.Fatalf("pipeline retry failed: %v (%d responses)", err, len(resps))
		}
		if got := c.Obs.Retries.Load(); got != 2 {
			t.Errorf("retries = %d after the batch, want 2", got)
		}
	})
}

// resetFirstListener resets the first accepted connection on its first
// write and passes the rest through untouched.
type resetFirstListener struct {
	net.Listener
	accepted atomic.Int32
}

func (l *resetFirstListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if l.accepted.Add(1) == 1 {
		return faultconn.Wrap(conn, faultconn.Fault{Reset: true}), nil
	}
	return conn, nil
}

func TestTransportRetriesOnAnotherConn(t *testing.T) {
	eachInflight(t, func(t *testing.T, k int) {
		rfl := &resetFirstListener{Listener: listenLoopback(t)}
		srv := &Server{Handler: HandlerFunc(echoHandler)}
		go srv.Serve(rfl)
		defer srv.Close()

		c := newTestClient(k)
		defer c.Close()
		// The first connection dies mid-exchange; DoContext must retry
		// transparently on another one.
		resp, err := c.DoContext(context.Background(), rfl.Addr().String(), NewRequest("GET", "/again"))
		if err != nil {
			t.Fatalf("request over a reset connection failed: %v", err)
		}
		if string(resp.Body) != "echo:/again" {
			t.Fatalf("body = %q", resp.Body)
		}
		if got := c.Obs.Retries.Load(); got != 1 {
			t.Errorf("retries = %d, want 1", got)
		}
		if rfl.accepted.Load() != 2 {
			t.Errorf("accepted %d connections, want 2", rfl.accepted.Load())
		}
	})
}

func TestTransportDropsConnOnConnectionClose(t *testing.T) {
	eachInflight(t, func(t *testing.T, k int) {
		addr := startServer(t, HandlerFunc(echoHandler))
		c := newTestClient(k)
		defer c.Close()
		req := NewRequest("GET", "/bye")
		req.Header.Set("Connection", "close")
		if _, err := c.DoContext(context.Background(), addr, req); err != nil {
			t.Fatal(err)
		}
		if got := c.Obs.ConnsOpen.Load(); got != 0 {
			t.Errorf("conns_open = %d after Connection: close, want 0", got)
		}
		if got := c.Obs.ConnsIdle.Load(); got != 0 {
			t.Errorf("conns_idle = %d after Connection: close, want 0", got)
		}
		// The next request must transparently redial.
		if resp, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/again")); err != nil || resp.Status != 200 {
			t.Fatalf("redial failed: %v", err)
		}
		if got := c.Obs.Dials.Load(); got != 2 {
			t.Errorf("dials = %d, want 2", got)
		}
		if got := c.Obs.Retries.Load(); got != 0 {
			t.Errorf("retries = %d, want 0: an announced close is not a failure", got)
		}
	})
}

func TestTransportBoundsConnsPerHost(t *testing.T) {
	eachInflight(t, func(t *testing.T, k int) {
		g := newGate()
		l := startTrackedServer(t, g)
		c := newTestClient(k)
		c.MaxConnsPerHost = 2
		defer c.Close()

		// Two connections hold 2k exchanges; four more have to wait.
		slots, extra := 2*k, 4
		var wg sync.WaitGroup
		errs := make(chan error, slots+extra)
		for i := 0; i < slots+extra; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				path := fmt.Sprintf("/slow%d", i)
				resp, err := c.DoContext(context.Background(), l.Addr().String(), NewRequest("GET", path))
				if err == nil && string(resp.Body) != "echo:"+path {
					err = fmt.Errorf("body %q for %s", resp.Body, path)
				}
				errs <- err
			}(i)
			if i < slots {
				// One at a time while there is room, so that none waits
				// for a dial that another started.
				waitFor(t, "the request to be written", func() bool { return c.Obs.WriteOps.Load() == int64(i+1) })
			}
		}
		waitFor(t, "the overflow to queue", func() bool { return c.Obs.PoolWaits.Load() >= int64(extra) })
		g.open()
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("bounded request failed: %v", err)
			}
		}
		if got := l.accepted(); got != 2 {
			t.Errorf("%d concurrent requests opened %d connections, want 2 (MaxConnsPerHost)", slots+extra, got)
		}
		if got := c.Obs.PoolWaits.Load(); got != int64(extra) {
			t.Errorf("pool_waits = %d, want %d", got, extra)
		}
		if got := c.Obs.ConnsOpen.Load(); got != 2 {
			t.Errorf("conns_open = %d, want 2", got)
		}
	})
}

func TestTransportSpreadsConcurrentRequests(t *testing.T) {
	eachInflight(t, func(t *testing.T, k int) {
		g := newGate()
		addr := startServer(t, g)
		c := newTestClient(k)
		defer c.Close()

		// Requests arrive one after the other and stay in flight: each
		// connection fills to its capacity before the next is dialed.
		const conns = 4
		var outs []<-chan outcome
		for i := 0; i < conns*k; i++ {
			outs = append(outs, doAsync(context.Background(), c, addr, "/r"))
			waitFor(t, "the request to be written", func() bool { return c.Obs.WriteOps.Load() == int64(i+1) })
			if want := int64(i/k + 1); c.Obs.ConnsOpen.Load() != want {
				t.Fatalf("request %d: conns_open = %d, want %d", i, c.Obs.ConnsOpen.Load(), want)
			}
		}
		g.open()
		for _, out := range outs {
			if o := <-out; o.err != nil {
				t.Errorf("do: %v", o.err)
			}
		}
		if got := c.Obs.Dials.Load(); got != conns {
			t.Errorf("dials = %d, want %d", got, conns)
		}
		if got := c.Obs.ConnsIdle.Load(); got != conns {
			t.Errorf("conns_idle = %d after completion, want %d", got, conns)
		}
	})
}

func TestTransportReapsIdleConns(t *testing.T) {
	eachInflight(t, func(t *testing.T, k int) {
		addr := startServer(t, HandlerFunc(echoHandler))
		c := newTestClient(k)
		c.IdleConnTimeout = 20 * time.Millisecond
		defer c.Close()
		if _, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/a")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(80 * time.Millisecond)
		// The next request reaps the expired connection and dials afresh.
		if _, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/b")); err != nil {
			t.Fatal(err)
		}
		if got := c.Obs.IdleClosed.Load(); got != 1 {
			t.Errorf("idle_closed = %d, want 1", got)
		}
		if got := c.Obs.Dials.Load(); got != 2 {
			t.Errorf("dials = %d, want 2 (idle conn was reaped)", got)
		}
		if got := c.Obs.ConnsOpen.Load(); got != 1 {
			t.Errorf("conns_open = %d, want 1", got)
		}
		if got := c.Obs.Retries.Load(); got != 0 {
			t.Errorf("retries = %d, want 0", got)
		}
	})
}

func TestTransportCloseFailsWaitersAndInflight(t *testing.T) {
	eachInflight(t, func(t *testing.T, k int) {
		g := newGate()
		addr := startServer(t, g)
		c := newTestClient(k)
		c.MaxConnsPerHost = 1

		var outs []<-chan outcome
		for i := 0; i < k; i++ {
			outs = append(outs, doAsync(context.Background(), c, addr, "/hog"))
			waitFor(t, "the request to be written", func() bool { return c.Obs.WriteOps.Load() == int64(i+1) })
		}
		outs = append(outs, doAsync(context.Background(), c, addr, "/waiting"))
		waitFor(t, "the waiter to queue", func() bool { return c.Obs.PoolWaits.Load() == 1 })
		c.Close()
		for i, out := range outs {
			select {
			case o := <-out:
				if o.err == nil {
					t.Errorf("request %d survived Close", i)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("request %d hung after Close", i)
			}
		}
		if _, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/late")); !errors.Is(err, net.ErrClosed) {
			t.Errorf("request after Close: %v, want net.ErrClosed", err)
		}
	})
}

func TestTransportDeadlineAndCancelThenReuse(t *testing.T) {
	eachInflight(t, func(t *testing.T, k int) {
		g := newGate()
		addr := startServer(t, g)
		c := newTestClient(k)
		defer c.Close()

		// Establish the connection first so the short deadline below
		// races the exchange, never the dial.
		if _, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/free/warm")); err != nil {
			t.Fatalf("warmup: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		if _, err := c.DoContext(ctx, addr, NewRequest("GET", "/slow")); !errors.Is(err, wireerr.ErrRequestTimeout) {
			t.Fatalf("deadline: got %v, want ErrRequestTimeout", err)
		}
		ctx2, cancel2 := context.WithCancel(context.Background())
		out := doAsync(ctx2, c, addr, "/slow")
		waitFor(t, "the second slow request to reach the server", func() bool { return g.seen.Load() == 3 })
		cancel2()
		if o := <-out; !errors.Is(o.err, wireerr.ErrCanceled) || errors.Is(o.err, wireerr.ErrRequestTimeout) {
			t.Fatalf("cancel: got %v, want ErrCanceled", o.err)
		}
		if got := c.Obs.Retries.Load(); got != 0 {
			t.Errorf("retries = %d, want 0: a caller's own deadline or cancel is not retried", got)
		}
		g.open()
		// Neither may poison what comes after: no stale deadline, no
		// response left in the stream.
		for i := 0; i < 3; i++ {
			path := fmt.Sprintf("/after%d", i)
			resp, err := c.DoContext(context.Background(), addr, NewRequest("GET", path))
			if err != nil {
				t.Fatalf("request after cancellation: %v", err)
			}
			if string(resp.Body) != "echo:"+path {
				t.Fatalf("stream out of step: %q", resp.Body)
			}
		}
	})
}

func TestTransportCanceledWaiterIsDiscarded(t *testing.T) {
	// A caller that gives up behind the head of a shared connection must
	// not cost the connection: its response is read and dropped when its
	// turn comes, and the exchanges around it get their own.
	g := newGate()
	l := startTrackedServer(t, g)
	addr := l.Addr().String()
	c := newTestClient(4)
	defer c.Close()

	first := doAsync(context.Background(), c, addr, "/first")
	waitFor(t, "the head to reach the server", func() bool { return g.seen.Load() == 1 })
	ctx, cancel := context.WithCancel(context.Background())
	second := doAsync(ctx, c, addr, "/second")
	waitFor(t, "the second request to be written", func() bool { return c.Obs.WriteOps.Load() == 2 })
	third := doAsync(context.Background(), c, addr, "/third")
	waitFor(t, "the third request to be written", func() bool { return c.Obs.WriteOps.Load() == 3 })
	cancel()
	if o := <-second; !errors.Is(o.err, wireerr.ErrCanceled) {
		t.Fatalf("canceled waiter got %v, want ErrCanceled", o.err)
	}
	g.open()
	for path, out := range map[string]<-chan outcome{"/first": first, "/third": third} {
		if o := <-out; o.err != nil || string(o.resp.Body) != "echo:"+path {
			t.Fatalf("%s: %v %v", path, o.resp, o.err)
		}
	}
	if got, retries := l.accepted(), c.Obs.Retries.Load(); got != 1 || retries != 0 {
		t.Errorf("%d connections, %d retries; want the one connection to survive", got, retries)
	}
}

func TestTransportMultiplexes(t *testing.T) {
	l := startTrackedServer(t, HandlerFunc(echoHandler))
	c := newTestClient(8)
	defer c.Close()

	const requests = 40
	var wg sync.WaitGroup
	errs := make([]error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("/mux%d", i)
			resp, err := c.DoContext(context.Background(), l.Addr().String(), NewRequest("GET", path))
			if err != nil {
				errs[i] = err
				return
			}
			if string(resp.Body) != "echo:"+path {
				errs[i] = fmt.Errorf("body %q for %s", resp.Body, path)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	// Every response back at its own caller over far fewer connections
	// than requests.
	got := l.accepted()
	if got >= requests {
		t.Errorf("%d requests used %d connections; nothing was shared", requests, got)
	}
	if max := c.maxConnsPerHost(); got > max {
		t.Errorf("%d connections exceeds per-host bound %d", got, max)
	}
	if c.Obs.WriteBatch.Count() == 0 {
		t.Error("no writev batches recorded")
	}
}

func TestTransportSequentialOrdering(t *testing.T) {
	eachInflight(t, func(t *testing.T, k int) {
		l := startTrackedServer(t, HandlerFunc(echoHandler))
		c := newTestClient(k)
		defer c.Close()
		for i := 0; i < 25; i++ {
			path := fmt.Sprintf("/seq%d", i)
			resp, err := c.DoContext(context.Background(), l.Addr().String(), NewRequest("GET", path))
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			if string(resp.Body) != "echo:"+path {
				t.Fatalf("request %d got %q", i, resp.Body)
			}
		}
		if got := l.accepted(); got != 1 {
			t.Errorf("25 sequential requests used %d connections, want 1", got)
		}
	})
}

// TestMuxCancellationHammer is the -race stress for shared connections:
// many goroutines share a few connections while a third of the callers
// abandon mid-flight, exercising every queue/turn/close interleaving.
func TestMuxCancellationHammer(t *testing.T) {
	h := HandlerFunc(func(ctx context.Context, req *Request) *Response {
		if len(req.Path)%3 == 0 {
			time.Sleep(time.Millisecond)
		}
		return echoHandler(ctx, req)
	})
	addr := startServer(t, h)
	c := newTestClient(4)
	defer c.Close()

	const workers = 8
	const perWorker = 30
	var wg sync.WaitGroup
	var failures atomic.Int32
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				path := fmt.Sprintf("/h%d-%d", g, i)
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if i%3 == 0 {
					// Deadline short enough to abandon some calls
					// mid-flight, long enough that others land.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(i%5)*500*time.Microsecond)
				}
				resp, err := c.DoContext(ctx, addr, NewRequest("GET", path))
				cancel()
				switch {
				case err == nil:
					if string(resp.Body) != "echo:"+path {
						t.Errorf("cross-wired body %q for %s", resp.Body, path)
						failures.Add(1)
						return
					}
				case errors.Is(err, wireerr.ErrCanceled),
					errors.Is(err, wireerr.ErrRequestTimeout),
					errors.Is(err, wireerr.ErrDialTimeout),
					errors.Is(err, wireerr.ErrTruncatedBody),
					errors.Is(err, net.ErrClosed):
					// Expected outcomes for abandoned or collateral calls
					// (a sub-millisecond deadline can expire inside a dial).
				default:
					t.Errorf("unclassified error for %s: %v", path, err)
					failures.Add(1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatal("hammer saw failures")
	}
	// Steady state after the storm: a fresh exchange must still work.
	resp, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/steady"))
	if err != nil || string(resp.Body) != "echo:/steady" {
		t.Fatalf("post-hammer exchange: %v %q", err, resp)
	}
}

func TestTransportStartsNoGoroutines(t *testing.T) {
	start := runtime.NumGoroutine()
	const conns = 8
	g := newGate()
	var arrived atomic.Int32
	all := make(chan struct{})
	l := listenLoopback(t)
	srv := &Server{Handler: HandlerFunc(func(ctx context.Context, req *Request) *Response {
		if req.Path != "/together" {
			return g.ServeWire(ctx, req)
		}
		if arrived.Add(1) == conns {
			close(all)
		}
		<-all
		return echoHandler(ctx, req)
	})}
	go srv.Serve(l)
	addr := l.Addr().String()

	// Eight connections carry an exchange each at the same time, then sit
	// idle.
	c := newTestClient(1)
	var outs []<-chan outcome
	for i := 0; i < conns; i++ {
		outs = append(outs, doAsync(context.Background(), c, addr, "/together"))
	}
	for _, out := range outs {
		if o := <-out; o.err != nil {
			t.Fatal(o.err)
		}
	}
	if got := c.Obs.ConnsIdle.Load(); got != conns {
		t.Fatalf("conns_idle = %d, want %d", got, conns)
	}
	// What is left runs the server: its accept loop and one goroutine per
	// connection. The client's connections own none.
	waitFor(t, "the callers to return", func() bool { return runtime.NumGoroutine() <= start+1+conns })

	// Close with exchanges in flight, one of them waiting for its turn
	// behind an abandoned one: everything the client was doing ends.
	c2 := newTestClient(4)
	ctx, cancel := context.WithCancel(context.Background())
	held := []<-chan outcome{doAsync(context.Background(), c2, addr, "/held")}
	waitFor(t, "the head to reach the server", func() bool { return c2.Obs.WriteOps.Load() == 1 })
	gone := doAsync(ctx, c2, addr, "/gone")
	waitFor(t, "the second request to be written", func() bool { return c2.Obs.WriteOps.Load() == 2 })
	held = append(held, doAsync(context.Background(), c2, addr, "/held"))
	waitFor(t, "the third request to be written", func() bool { return c2.Obs.WriteOps.Load() == 3 })
	cancel()
	<-gone
	c.Close()
	c2.Close()
	for _, out := range held {
		if o := <-out; o.err == nil {
			t.Error("exchange in flight survived Close")
		}
	}
	g.open()
	srv.Close()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > start {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > start {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines after Close: %d, started with %d\n%s", got, start, buf[:runtime.Stack(buf, true)])
	}
}

func TestTransportCancelAtHeadFailsOnlyThatCall(t *testing.T) {
	g := newGate()
	addr := startServer(t, g)
	c := newTestClient(4)
	defer c.Close()

	// Four exchanges on one connection; the server is still busy with the
	// first, which therefore holds the read turn.
	ctx, cancel := context.WithCancel(context.Background())
	head := doAsync(ctx, c, addr, "/head")
	waitFor(t, "the head to reach the server", func() bool { return g.seen.Load() == 1 })
	var rest []<-chan outcome
	for i := 0; i < 3; i++ {
		rest = append(rest, doAsync(context.Background(), c, addr, fmt.Sprintf("/free/rest%d", i)))
		waitFor(t, "the request to be written", func() bool { return c.Obs.WriteOps.Load() == int64(i+2) })
	}
	if got := c.Obs.ConnsOpen.Load(); got != 1 {
		t.Fatalf("conns_open = %d, want the four on one connection", got)
	}
	cancel()
	if o := <-head; !errors.Is(o.err, wireerr.ErrCanceled) {
		t.Fatalf("canceled head got %v, want ErrCanceled", o.err)
	}
	// The head was cut off mid-response, so the connection is lost; the
	// others are sent again, once, and get their own bodies.
	for i, out := range rest {
		o := <-out
		if o.err != nil {
			t.Fatalf("rest%d: %v", i, o.err)
		}
		if want := fmt.Sprintf("echo:/free/rest%d", i); string(o.resp.Body) != want {
			t.Fatalf("rest%d got %q", i, o.resp.Body)
		}
	}
	if got := c.Obs.Retries.Load(); got != 3 {
		t.Errorf("retries = %d, want 3", got)
	}
}

func TestTransportCollateralErrorIsConnectionLevel(t *testing.T) {
	// A batch's second exchange starts its budget when the first has been
	// answered, so it can outlast a call queued behind it. When it then
	// times out and takes the connection with it, that call — its own
	// budget spent, so not retried — must not report the batch's timeout
	// as its own.
	if testing.Short() {
		t.Skip("timing-dependent")
	}
	var seen atomic.Int32
	release := make(chan struct{})
	defer close(release)
	addr := startServer(t, HandlerFunc(func(ctx context.Context, req *Request) *Response {
		seen.Add(1)
		resp := echoHandler(ctx, req)
		switch req.Path {
		case "/b0":
			time.Sleep(100 * time.Millisecond)
			// Past the size up to which the server holds a response back
			// for the next one, which is not coming.
			resp.Body = make([]byte, maxResponseBatchBytes+1)
		case "/b1":
			<-release
		}
		return resp
	}))
	c := newTestClient(4)
	c.MaxConnsPerHost = 1
	c.RequestTimeout = 150 * time.Millisecond
	defer c.Close()

	type batch struct {
		resps []*Response
		err   error
	}
	batchDone := make(chan batch, 1)
	go func() {
		resps, err := c.DoAllContext(context.Background(), addr, []*Request{NewRequest("GET", "/b0"), NewRequest("GET", "/b1")})
		batchDone <- batch{resps, err}
	}()
	waitFor(t, "the batch to reach the server", func() bool { return seen.Load() == 1 })
	behind := <-doAsync(context.Background(), c, addr, "/behind")
	if b := <-batchDone; len(b.resps) != 1 || !errors.Is(b.err, wireerr.ErrRequestTimeout) {
		t.Fatalf("batch: %d responses, %v; want 1 and ErrRequestTimeout", len(b.resps), b.err)
	}
	if !errors.Is(behind.err, net.ErrClosed) || errors.Is(behind.err, wireerr.ErrRequestTimeout) {
		t.Fatalf("collateral call got %v, want a net.ErrClosed that is no timeout", behind.err)
	}
	if got := c.Obs.Retries.Load(); got != 0 {
		t.Errorf("retries = %d, want 0", got)
	}
}

func TestPipelineRacesSingleCalls(t *testing.T) {
	eachInflight(t, func(t *testing.T, k int) {
		addr := startServer(t, HandlerFunc(echoHandler))
		c := newTestClient(k)
		c.MaxConnsPerHost = 2
		defer c.Close()

		const rounds = 20
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					method, want := "GET", fmt.Sprintf("echo:/s%d-%d", g, i)
					if i%4 == 0 {
						method, want = "HEAD", ""
					}
					resp, err := c.DoContext(context.Background(), addr, NewRequest(method, fmt.Sprintf("/s%d-%d", g, i)))
					if err != nil || string(resp.Body) != want {
						t.Errorf("single %d-%d: %v %q", g, i, err, resp)
						return
					}
				}
			}(g)
		}
		for i := 0; i < rounds; i++ {
			reqs := []*Request{
				NewRequest("GET", fmt.Sprintf("/b%d-0", i)),
				NewRequest("HEAD", fmt.Sprintf("/b%d-1", i)),
				NewRequest("GET", fmt.Sprintf("/b%d-2", i)),
				NewRequest("GET", fmt.Sprintf("/b%d-3", i)),
			}
			resps, err := c.DoAllContext(context.Background(), addr, reqs)
			if err != nil || len(resps) != len(reqs) {
				t.Fatalf("batch %d: %v (%d responses)", i, err, len(resps))
			}
			for j, r := range resps {
				want := "echo:" + reqs[j].Path
				if reqs[j].Method == "HEAD" {
					want = ""
				}
				if string(r.Body) != want {
					t.Fatalf("batch %d response %d = %q, want %q", i, j, r.Body, want)
				}
			}
		}
		wg.Wait()
	})
}

func TestPipelineBasic(t *testing.T) {
	eachInflight(t, func(t *testing.T, k int) {
		l := startTrackedServer(t, HandlerFunc(echoHandler))
		addr := l.Addr().String()
		c := newTestClient(k)
		defer c.Close()

		if resps, err := c.DoAllContext(context.Background(), addr, nil); err != nil || resps != nil {
			t.Fatalf("empty pipeline: %v, %v", resps, err)
		}
		// A batch reuses the connection a single exchange left, and leaves
		// it for the next.
		if _, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/warm")); err != nil {
			t.Fatal(err)
		}
		reqs := []*Request{NewRequest("HEAD", "/p0")}
		for i := 1; i < 8; i++ {
			reqs = append(reqs, NewRequest("GET", fmt.Sprintf("/p%d", i)))
		}
		resps, err := c.DoAllContext(context.Background(), addr, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if len(resps) != len(reqs) {
			t.Fatalf("got %d responses", len(resps))
		}
		if len(resps[0].Body) != 0 {
			t.Errorf("HEAD response carried a body: %q", resps[0].Body)
		}
		for i, r := range resps[1:] {
			want := fmt.Sprintf("echo:/p%d", i+1)
			if string(r.Body) != want {
				t.Fatalf("response %d = %q, want %q (ordering!)", i+1, r.Body, want)
			}
		}
		if _, err := c.DoContext(context.Background(), addr, NewRequest("GET", "/after")); err != nil {
			t.Fatal(err)
		}
		if got := l.accepted(); got != 1 {
			t.Errorf("used %d connections, want 1", got)
		}
		if got := c.Obs.WriteOps.Load(); got != 3 {
			t.Errorf("%d writes, want 3: the batch goes out as one", got)
		}
	})
}

func TestPipelineWithTrailers(t *testing.T) {
	// Piggyback trailers must frame correctly under pipelining: each
	// chunked response terminates before the next begins.
	h := HandlerFunc(func(_ context.Context, req *Request) *Response {
		resp := NewResponse(200)
		resp.Body = []byte("body:" + req.Path)
		if f, ok := GetFilter(req); ok && f.MaxPiggy > 0 {
			AttachPiggyback(resp, core.Message{Volume: 3, Elements: []core.Element{
				{URL: req.Path + ".sibling", Size: 1, LastModified: 2},
			}})
		}
		return resp
	})
	addr := startServer(t, h)
	c := NewClient()
	defer c.Close()
	var reqs []*Request
	for i := 0; i < 5; i++ {
		req := NewRequest("GET", fmt.Sprintf("/r%d", i))
		SetFilter(req, core.Filter{MaxPiggy: 5})
		reqs = append(reqs, req)
	}
	resps, err := c.DoAllContext(context.Background(), addr, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if string(r.Body) != fmt.Sprintf("body:/r%d", i) {
			t.Fatalf("response %d body %q", i, r.Body)
		}
		m, ok := ExtractPiggyback(r)
		if !ok || m.Elements[0].URL != fmt.Sprintf("/r%d.sibling", i) {
			t.Fatalf("response %d piggyback %+v %v", i, m, ok)
		}
	}
}

func TestPipelinePerExchangeDeadlines(t *testing.T) {
	// Three responses that each take ~100ms must survive a 200ms
	// RequestTimeout, because every exchange of a batch gets its own
	// budget from when the one before it has been answered; a single
	// deadline for the whole batch would expire before the third. Bodies
	// are sized past maxResponseBatchBytes so the server flushes each
	// response as it finishes instead of coalescing the batch — the
	// arrivals must be spread in time to discriminate.
	if testing.Short() {
		t.Skip("timing-dependent")
	}
	body := bytes.Repeat([]byte("x"), maxResponseBatchBytes+1024)
	h := HandlerFunc(func(_ context.Context, req *Request) *Response {
		time.Sleep(100 * time.Millisecond)
		resp := NewResponse(200)
		resp.Header.Set("X-Path", req.Path)
		resp.Body = body
		return resp
	})
	addr := startServer(t, h)
	c := NewClient()
	c.RequestTimeout = 200 * time.Millisecond
	defer c.Close()

	reqs := []*Request{
		NewRequest("GET", "/d0"),
		NewRequest("GET", "/d1"),
		NewRequest("GET", "/d2"),
	}
	resps, err := c.DoAllContext(context.Background(), addr, reqs)
	if err != nil {
		t.Fatalf("pipeline with per-exchange budgets: %v (%d responses)", err, len(resps))
	}
	for i, r := range resps {
		if r.Header.Get("X-Path") != fmt.Sprintf("/d%d", i) {
			t.Fatalf("response %d answered %q", i, r.Header.Get("X-Path"))
		}
	}
}

func TestPipelineContextDeadlineStillBounds(t *testing.T) {
	// The per-exchange budget must not extend past the caller's own
	// context deadline: a batch that cannot finish in time fails with the
	// timeout taxonomy instead of running RequestTimeout-per-read long.
	if testing.Short() {
		t.Skip("timing-dependent")
	}
	h := HandlerFunc(func(ctx context.Context, req *Request) *Response {
		time.Sleep(80 * time.Millisecond)
		return echoHandler(ctx, req)
	})
	addr := startServer(t, h)
	c := NewClient()
	c.RequestTimeout = 5 * time.Second
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.DoAllContext(ctx, addr, []*Request{
		NewRequest("GET", "/a"), NewRequest("GET", "/b"), NewRequest("GET", "/c"),
	})
	if !errors.Is(err, wireerr.ErrRequestTimeout) {
		t.Fatalf("got %v, want ErrRequestTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("batch outlived its context by %v", elapsed)
	}
}

package httpwire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"piggyback/internal/httpwire/wireerr"
	"piggyback/internal/obs"
)

// Client issues requests over a per-host set of persistent connections (a
// proxy multiplexes many clients onto persistent connections to each
// server and pipelines over them, §1). A connection carries up to
// MaxInflightPerConn exchanges at a time and a host up to MaxConnsPerHost
// connections; a request that finds every connection full and the host at
// its bound waits for a slot instead of dialing.
//
// No goroutine belongs to a connection: the callers do the I/O. A caller
// queues its request and, if nobody is writing, writes everything queued —
// its own and whatever arrived meanwhile — as one writev. HTTP/1.1
// responses carry no exchange IDs, so order is the correlation: the caller
// whose request is oldest holds the read turn, reads its own response
// under its own deadline and passes the turn on.
type Client struct {
	// RequestTimeout caps one request/response exchange; zero = 30s. The
	// effective deadline is the sooner of this cap and the caller's
	// context deadline.
	RequestTimeout time.Duration
	// MaxConnsPerHost bounds the connections per origin address; zero
	// means 16. Requests beyond the bound wait for a slot on one of them
	// rather than dialing.
	MaxConnsPerHost int
	// MaxInflightPerConn is how many concurrent exchanges one persistent
	// connection carries: requests queued together go out as one writev
	// burst and the pipelined responses are read in order, so N in-flight
	// requests to one host share one connection instead of N. Zero or
	// one gives every exchange a connection to itself.
	MaxInflightPerConn int
	// Obs, when non-nil, receives wire-level telemetry: per-exchange
	// round-trip latency, retries, dials, body bytes, per-class failure
	// counters, and the connection gauges (open and idle connections,
	// waits, reaped conns).
	Obs *obs.WireMetrics

	// idleConnTimeout and retryBackoff, when set (by tests), replace
	// idleTimeout and defaultRetryBackoff.
	idleConnTimeout, retryBackoff time.Duration

	mu     sync.Mutex
	hosts  map[string]*host
	closed bool
}

const (
	// dialTimeout bounds connection establishment; a sooner context
	// deadline wins.
	dialTimeout = 5 * time.Second
	// idleTimeout is how long a connection with nothing in flight stays
	// open — the 60 s uniform timeout the paper mentions, on both ends, so
	// a client and a server age connections on the same clock.
	idleTimeout = 60 * time.Second
	// defaultRetryBackoff is the pause before the single retry of an
	// exchange whose connection failed.
	defaultRetryBackoff = 2 * time.Millisecond
)

// host is the set of connections to one address. Its mutex guards every
// field of the host, of its connections and of the calls queued on them;
// it is never held across I/O, a dial or a wait.
type host struct {
	c    *Client
	addr string

	mu sync.Mutex
	// cond wakes requests waiting for a slot: an exchange ended, a
	// connection closed, a dial landed, a waiter's context ended.
	cond   *sync.Cond
	conns  []*conn
	dials  int // in flight, counted against MaxConnsPerHost
	closed bool
}

// conn is one persistent connection and its exchanges in request order.
type conn struct {
	h  *host
	nc net.Conn
	br *bufio.Reader

	// q[0] holds the read turn. q[:w] are on the wire or being written;
	// q[w:] wait for the writer, which stays writer until none is left —
	// so the writer's own call, queued ahead of them, is still in q and a
	// call that is not written never reaches the head.
	q      []*call
	w      int
	writer *call
	// reading: the holder of the turn is inside ReadResponse and owns br.
	reading   bool
	dead      bool
	idleSince time.Time
}

// call is one exchange on a connection.
type call struct {
	req  *Request
	resp *Response
	cn   *conn
	// deadline is the call's budget: the sooner of its context's deadline
	// and RequestTimeout from when its caller started waiting for it.
	deadline time.Time
	// turn, made by a caller that has to wait for the read turn, is
	// closed when it gets the turn or its connection fails.
	turn chan struct{}
	// abandoned: the caller gave up after the request went out; the
	// response is read and dropped to keep the stream in step.
	abandoned bool
	err       error // the connection failed under the call
}

var (
	errClientClosed = errors.New("client closed")
	errServerClose  = errors.New("server sent Connection: close")
	// aLongTimeAgo, as a deadline, fails blocked I/O at once.
	aLongTimeAgo = time.Unix(1, 0)
)

// NewClient returns a Client ready for use.
func NewClient() *Client { return &Client{} }

func (c *Client) requestTimeout() time.Duration {
	if c.RequestTimeout > 0 {
		return c.RequestTimeout
	}
	return 30 * time.Second
}

func (c *Client) maxConnsPerHost() int {
	if c.MaxConnsPerHost > 0 {
		return c.MaxConnsPerHost
	}
	return 16
}

// budget is the deadline of an exchange whose caller starts waiting now.
func (c *Client) budget(ctx context.Context) time.Time {
	d := time.Now().Add(c.requestTimeout())
	if cd, ok := ctx.Deadline(); ok && cd.Before(d) {
		d = cd
	}
	return d
}

// sleepBackoff pauses for d unless ctx ends first. A cancelled caller gets
// wireerr.FromContext immediately instead of burning the full backoff — the
// retry path must never outlive the request it serves.
func sleepBackoff(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return wireerr.FromContext(ctx.Err())
	}
}

// DoContext sends req to the server at addr ("host:port") and returns its
// response. The exchange is bounded by the sooner of ctx's deadline and
// RequestTimeout; cancelling ctx interrupts it. An exchange that fails with
// its connection — a server that closed an idle connection, or another
// exchange's failure on a shared one — is retried once on another
// connection while its budget remains. Failures are classified per the
// wireerr taxonomy: errors.Is against wireerr.ErrDialTimeout,
// ErrRequestTimeout, ErrCanceled, and ErrTruncatedBody holds on the
// corresponding paths.
func (c *Client) DoContext(ctx context.Context, addr string, req *Request) (*Response, error) {
	start := time.Now()
	call := &call{req: req}
	h, err := c.host(addr)
	if err == nil {
		err = h.do(ctx, call)
	}
	if c.Obs != nil {
		if err == nil {
			c.Obs.Requests.Inc()
			c.Obs.BytesOut.Add(int64(len(req.Body)))
			c.Obs.BytesIn.Add(int64(len(call.resp.Body)))
			c.Obs.Latency.Observe(time.Since(start).Microseconds())
		} else {
			c.Obs.Errors.Inc()
			c.Obs.CountErrClass(wireerr.Class(err))
		}
	}
	if err != nil {
		return nil, err
	}
	return call.resp, nil
}

// host returns the connection set for addr, creating it on first use.
func (c *Client) host(addr string) (*host, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, net.ErrClosed
	}
	h := c.hosts[addr]
	if h == nil {
		if c.hosts == nil {
			c.hosts = make(map[string]*host)
		}
		h = &host{c: c, addr: addr}
		h.cond = sync.NewCond(&h.mu)
		c.hosts[addr] = h
	}
	return h, nil
}

// do runs call on one of the host's connections. A call that fails with
// its connection is sent once more, on another one.
func (h *host) do(ctx context.Context, call *call) (err error) {
	c := h.c
	// One hook serves every place the caller can be when ctx ends.
	stop := context.AfterFunc(ctx, func() { h.interrupt(call) })
	defer stop()
	h.mu.Lock()
	defer h.mu.Unlock()
	for retried := false; ; retried = true {
		var cn *conn
		if cn, err = h.pickLocked(ctx); err != nil {
			return err
		}
		cn.enqueueLocked(call, c.budget(ctx))
		if err = cn.flushLocked(call); err != nil {
			err = wireerr.Exchange(ctx, err)
		} else if call.resp, err = cn.awaitLocked(ctx, call); err == nil {
			return nil
		}
		if retried || ctx.Err() != nil || !time.Now().Before(call.deadline) {
			return err
		}
		if c.Obs != nil {
			c.Obs.Retries.Inc()
		}
		h.mu.Unlock()
		pause := c.retryBackoff
		if pause == 0 {
			pause = defaultRetryBackoff
		}
		err = sleepBackoff(ctx, pause)
		h.mu.Lock()
		if err != nil {
			return err
		}
	}
}

// interrupt runs when the context of call ends: it wakes the caller if it
// waits for a slot and fails the I/O it is blocked in, if any. (A caller
// waiting for the read turn watches its context itself.) Deadlines are set
// under h.mu only, so this one cannot be overwritten by the deadline of the
// I/O it is meant to fail, nor land on the next caller's.
func (h *host) interrupt(call *call) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if cn := call.cn; cn != nil && !cn.dead {
		if cn.writer == call {
			cn.nc.SetWriteDeadline(aLongTimeAgo)
		}
		if len(cn.q) > 0 && cn.q[0] == call && !call.abandoned {
			cn.nc.SetReadDeadline(aLongTimeAgo)
		}
	}
	h.cond.Broadcast()
}

// pickLocked returns a connection with room for an exchange: the
// least-loaded live one if it is under MaxInflightPerConn, else a new one
// if the host is under MaxConnsPerHost, else whichever of the two comes
// first. It releases h.mu while it dials or waits.
func (h *host) pickLocked(ctx context.Context) (*conn, error) {
	c := h.c
	waited := false
	for {
		if err := ctx.Err(); err != nil {
			return nil, wireerr.FromContext(err)
		}
		if h.closed {
			return nil, net.ErrClosed
		}
		h.reapLocked(time.Now())
		var best *conn
		for _, cn := range h.conns {
			if best == nil || len(cn.q) < len(best.q) {
				best = cn
			}
		}
		if best != nil && len(best.q) < max(c.MaxInflightPerConn, 1) {
			return best, nil
		}
		if len(h.conns)+h.dials < c.maxConnsPerHost() {
			return h.dialLocked(ctx)
		}
		if !waited && c.Obs != nil {
			c.Obs.PoolWaits.Inc()
		}
		waited = true
		h.cond.Wait()
	}
}

// dialLocked adds a connection to the host, releasing h.mu while it dials.
func (h *host) dialLocked(ctx context.Context) (*conn, error) {
	c := h.c
	h.dials++
	h.mu.Unlock()
	d := net.Dialer{Timeout: dialTimeout}
	nc, err := d.DialContext(ctx, "tcp", h.addr)
	h.mu.Lock()
	h.dials--
	h.cond.Broadcast()
	if err != nil {
		return nil, wireerr.Dial(ctx, err)
	}
	if h.closed {
		nc.Close()
		return nil, net.ErrClosed
	}
	src := io.Reader(nc)
	if c.Obs != nil {
		src = &countingReader{r: nc, ops: c.Obs.ReadOps}
		c.Obs.Dials.Inc()
		c.Obs.ConnsOpen.Inc()
		c.Obs.ConnsIdle.Inc()
	}
	cn := &conn{h: h, nc: nc, br: getReader(src), idleSince: time.Now()}
	h.conns = append(h.conns, cn)
	return cn, nil
}

// reapLocked closes the connections that have had no exchange in flight
// for the idle timeout.
func (h *host) reapLocked(now time.Time) {
	timeout := h.c.idleConnTimeout
	if timeout == 0 {
		timeout = idleTimeout
	}
	for i := len(h.conns) - 1; i >= 0; i-- {
		if cn := h.conns[i]; len(cn.q) == 0 && now.Sub(cn.idleSince) > timeout {
			cn.closeLocked(nil)
			if h.c.Obs != nil {
				h.c.Obs.IdleClosed.Inc()
			}
		}
	}
}

// enqueueLocked queues x, afresh, behind whatever cn carries.
func (cn *conn) enqueueLocked(x *call, deadline time.Time) {
	*x = call{req: x.req, cn: cn, deadline: deadline}
	cn.q = append(cn.q, x)
	if len(cn.q) == 1 {
		if m := cn.h.c.Obs; m != nil {
			m.ConnsIdle.Add(-1)
		}
		cn.passTurnLocked()
	}
}

// flushLocked makes call's goroutine the connection's writer unless it has
// one: it writes what is queued and not yet written — call and the calls
// that arrive while it writes — one writev per round, releasing h.mu for
// each. A failed write closes the connection.
func (cn *conn) flushLocked(call *call) (err error) {
	if cn.writer != nil {
		return nil // the writer takes call on its next round
	}
	h := cn.h
	cn.writer = call
	for err == nil && !cn.dead && cn.w < len(cn.q) {
		v := getVec()
		for _, x := range cn.q[cn.w:] {
			v.appendRequest(x.req)
		}
		// On the wire from here on, as far as the queue is concerned: no
		// response can arrive for a call the readers do not know.
		cn.w = len(cn.q)
		// No budget in the batch outlasts this.
		cn.nc.SetWriteDeadline(time.Now().Add(h.c.requestTimeout()))
		h.mu.Unlock()
		err = writeVec(cn.nc, v)
		if m := h.c.Obs; m != nil {
			m.WriteOps.Inc()
			m.WriteBatch.Observe(int64(v.msgs))
		}
		putVec(v)
		h.mu.Lock()
		if err != nil {
			cn.closeLocked(err)
		}
	}
	cn.writer = nil
	return err
}

// awaitLocked waits for call's read turn, reads its response and passes
// the turn on. It releases h.mu while it waits and while it reads.
func (cn *conn) awaitLocked(ctx context.Context, call *call) (*Response, error) {
	h := cn.h
	if call.err == nil && cn.q[0] != call {
		turn := make(chan struct{})
		call.turn = turn
		h.mu.Unlock()
		select {
		case <-turn:
		case <-ctx.Done():
		}
		h.mu.Lock()
		call.turn = nil
	}
	// The context first: if it ended, a failure of the connection may be
	// its doing (interrupt), and an interrupt that came before the turn
	// did was not for this read.
	if err := ctx.Err(); err != nil {
		if call.err == nil {
			cn.abandonLocked(call)
		}
		return nil, wireerr.FromContext(err)
	}
	if call.err != nil {
		return nil, call.err
	}
	cn.reading = true
	h.mu.Unlock()
	resp, err := ReadResponse(cn.br, call.req.Method == "HEAD")
	h.mu.Lock()
	cn.endTurnLocked(resp, err)
	return resp, wireerr.Exchange(ctx, err)
}

// discard reads and drops the response of an abandoned call at the head of
// the queue. It is the one goroutine the transport starts, and it ends with
// the read: at the call's deadline, or when the connection closes.
func (cn *conn) discard(call *call) {
	resp, err := ReadResponse(cn.br, call.req.Method == "HEAD")
	cn.h.mu.Lock()
	cn.endTurnLocked(resp, err)
	cn.h.mu.Unlock()
}

// endTurnLocked ends the read turn of q[0], whose reader got resp or err,
// and passes the turn on — or closes the connection, if the read failed or
// the server is closing it.
func (cn *conn) endTurnLocked(resp *Response, err error) {
	cn.reading = false
	switch {
	case cn.dead: // closed under the reader, which kept br
		putReader(cn.br)
	case err != nil:
		cn.closeLocked(err)
	case resp.Header.WantsClose():
		cn.closeLocked(errServerClose)
	default:
		cn.removeLocked(0)
		cn.passTurnLocked()
	}
}

// passTurnLocked gives the read turn to the head of the queue: it arms the
// head's deadline and wakes whoever reads its response.
func (cn *conn) passTurnLocked() {
	if len(cn.q) == 0 {
		return
	}
	head := cn.q[0]
	cn.nc.SetReadDeadline(head.deadline)
	switch {
	case head.abandoned:
		cn.reading = true
		go cn.discard(head)
	case head.turn != nil:
		close(head.turn)
		head.turn = nil
	}
}

// abandonLocked gives up on a call whose connection is alive. A request no
// writer has taken is withdrawn; one on the wire has a response coming,
// which is read and dropped when its turn comes — now, if it holds it.
func (cn *conn) abandonLocked(call *call) {
	for i := cn.w; i < len(cn.q); i++ {
		if cn.q[i] == call {
			cn.removeLocked(i)
			return
		}
	}
	call.abandoned = true
	if cn.q[0] == call {
		cn.passTurnLocked()
	}
}

// removeLocked takes q[i] off the connection, freeing its slot.
func (cn *conn) removeLocked(i int) {
	last := len(cn.q) - 1
	copy(cn.q[i:], cn.q[i+1:])
	cn.q[last] = nil
	cn.q = cn.q[:last]
	if i < cn.w {
		cn.w--
	}
	if last == 0 {
		cn.idleSince = time.Now()
		if m := cn.h.c.Obs; m != nil {
			m.ConnsIdle.Inc()
		}
	}
	cn.h.cond.Signal()
}

// closeLocked closes the connection once and fails every call queued on it
// with a connection-level error (not with cause itself: a timeout that
// closed the connection was one caller's, not theirs).
func (cn *conn) closeLocked(cause error) {
	if cn.dead {
		return
	}
	cn.dead = true
	h := cn.h
	for i, x := range h.conns {
		if x == cn {
			h.conns = append(h.conns[:i], h.conns[i+1:]...)
			break
		}
	}
	cn.nc.Close()
	if !cn.reading {
		putReader(cn.br)
	}
	if m := h.c.Obs; m != nil {
		m.ConnsOpen.Add(-1)
		if len(cn.q) == 0 {
			m.ConnsIdle.Add(-1)
		}
	}
	if len(cn.q) > 0 {
		err := fmt.Errorf("%w: connection to %s: %v", net.ErrClosed, h.addr, cause)
		for _, call := range cn.q {
			call.err = err
			if call.turn != nil {
				close(call.turn)
				call.turn = nil
			}
		}
		cn.q, cn.w = nil, 0
	}
	h.cond.Broadcast()
}

// Close shuts every connection and fails the requests waiting for one;
// exchanges in flight fail with their connection.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	hosts := c.hosts
	c.hosts = nil
	c.mu.Unlock()
	for _, h := range hosts {
		h.mu.Lock()
		h.closed = true
		for len(h.conns) > 0 {
			h.conns[0].closeLocked(errClientClosed)
		}
		h.cond.Broadcast()
		h.mu.Unlock()
	}
}

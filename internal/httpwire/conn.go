package httpwire

import (
	"context"
	"errors"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"piggyback/internal/obs"
)

// Handler responds to a request. Implementations must be safe for
// concurrent use; one goroutine serves each connection. ctx is the
// per-request context: it is cancelled when the serving connection tears
// down or the Server is closed, so long-running handlers (upstream
// fetches, single-flight waits) can abandon work nobody will read.
type Handler interface {
	ServeWire(ctx context.Context, req *Request) *Response
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(context.Context, *Request) *Response

// ServeWire calls f.
func (f HandlerFunc) ServeWire(ctx context.Context, req *Request) *Response {
	return f(ctx, req)
}

// Server serves HTTP/1.1 over a listener with persistent connections:
// requests on one connection are handled in order, and the connection
// stays open until the client sends Connection: close, idleTimeout passes
// with no request, or either side closes (§1: persistent connections
// avoid the round-trip delays of establishing a TCP connection per
// transfer).
type Server struct {
	Handler Handler
	// ErrorLog receives connection-level errors; nil discards them.
	ErrorLog *log.Logger
	// Obs, when non-nil, receives wire-level telemetry: per-request
	// handle+write latency, exchange counts, and body bytes.
	Obs *obs.WireMetrics

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	baseCtx  context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup
}

// context returns the server-lifetime context, creating it on first use.
// Caller holds s.mu.
func (s *Server) contextLocked() context.Context {
	if s.baseCtx == nil {
		s.baseCtx, s.cancel = context.WithCancel(context.Background())
	}
	return s.baseCtx
}

// Serve accepts connections on l until Close. It always returns a non-nil
// error; after Close it returns net.ErrClosed.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.listener = l
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	base := s.contextLocked()
	s.mu.Unlock()

	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(base, conn)
	}
}

// ListenAndServe listens on addr and serves. The returned address is
// available via Addr after the listener is bound; for tests, bind first
// with net.Listen and call Serve.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Addr returns the listener address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return nil
	}
	return s.listener.Addr()
}

// Close shuts the listener and all live connections, cancels every
// in-flight request context, then waits for connection goroutines to
// drain. Handlers that honor their context return promptly instead of
// lingering until a read deadline fires.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	if s.cancel != nil {
		s.cancel()
	}
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.ErrorLog != nil {
		s.ErrorLog.Printf(format, args...)
	}
}

func (s *Server) serveConn(base context.Context, conn net.Conn) {
	defer s.wg.Done()
	// The per-connection context: cancelled when this connection is done
	// or the whole server shuts down (base). Requests served on this
	// connection share it — a connection carries one request at a time.
	ctx, cancel := context.WithCancel(base)
	defer cancel()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	src := io.Reader(conn)
	if s.Obs != nil {
		src = &countingReader{r: conn, ops: s.Obs.ReadOps}
	}
	br := getReader(src)
	defer putReader(br)
	// Responses accumulate as writev segments and go to the socket in one
	// vectored write per coalesced batch — a pipelined burst of requests
	// costs one read and one write syscall for the whole burst.
	out := getVec()
	defer putVec(out)
	pending := 0
	// Every request on the connection comes from the same peer: render its
	// address once.
	remote := conn.RemoteAddr().String()
	flush := func() error {
		if pending == 0 {
			return nil
		}
		err := writeVec(conn, out)
		if s.Obs != nil {
			s.Obs.WriteOps.Inc()
			s.Obs.WriteBatch.Observe(int64(pending))
		}
		out.reset()
		pending = 0
		return err
	}
	for {
		// Only flush queued responses and arm the idle deadline when the
		// next request isn't already sitting in the read buffer; never
		// block on the socket while owing the client a response.
		if !requestBuffered(br) {
			if err := flush(); err != nil {
				if s.Obs != nil {
					s.Obs.Errors.Inc()
				}
				s.logf("httpwire: write response to %s: %v", conn.RemoteAddr(), err)
				return
			}
			if err := conn.SetReadDeadline(time.Now().Add(idleTimeout)); err != nil {
				return
			}
		}
		req, err := ReadRequest(br)
		if err != nil {
			_ = flush()
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				var nerr net.Error
				if !(errors.As(err, &nerr) && nerr.Timeout()) {
					s.logf("httpwire: read request from %s: %v", conn.RemoteAddr(), err)
					if errors.Is(err, ErrMalformed) {
						resp := NewResponse(400)
						resp.Header.Set("Connection", "close")
						out.appendResponse(resp, false)
						pending++
						_ = flush()
					}
				}
			}
			return
		}
		req.RemoteAddr = remote
		start := time.Now()
		resp := s.Handler.ServeWire(ctx, req)
		if resp == nil {
			resp = NewResponse(500)
		}
		close := req.Header.WantsClose() || req.Proto == "HTTP/1.0"
		if close {
			if resp.Header == nil {
				resp.Header = make(Header)
			}
			resp.Header.Set("Connection", "close")
		}
		out.appendResponse(resp, req.Method == "HEAD")
		pending++
		if s.Obs != nil {
			s.Obs.Requests.Inc()
			s.Obs.BytesIn.Add(int64(len(req.Body)))
			s.Obs.BytesOut.Add(int64(len(resp.Body)))
			s.Obs.Latency.Observe(time.Since(start).Microseconds())
		}
		if close || resp.Header.WantsClose() {
			if err := flush(); err != nil {
				if s.Obs != nil {
					s.Obs.Errors.Inc()
				}
				s.logf("httpwire: write response to %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		// Bound the batch so a long pipeline doesn't pin unbounded body
		// bytes before anything reaches the wire.
		if out.size() >= maxResponseBatchBytes {
			if err := flush(); err != nil {
				if s.Obs != nil {
					s.Obs.Errors.Inc()
				}
				s.logf("httpwire: write response to %s: %v", conn.RemoteAddr(), err)
				return
			}
		}
	}
}

// maxResponseBatchBytes caps how many serialized response bytes the serve
// loop queues before forcing a vectored write.
const maxResponseBatchBytes = 256 << 10

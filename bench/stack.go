package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"piggyback/internal/cache"
	"piggyback/internal/cache/tiered"
	"piggyback/internal/core"
	"piggyback/internal/httpwire"
	"piggyback/internal/obs"
	"piggyback/internal/proxy"
	"piggyback/internal/server"
)

// stack is the system under test, built in-process from the public
// constructors: an origin (server.New behind an httpwire.Server) and a proxy
// (proxy.New behind an httpwire.Server), each on its own loopback listener.
// No real link is crossed.
type stack struct {
	w      *workload
	world  *world
	origin *server.Server
	px     *proxy.Proxy
	osrv   *httpwire.Server
	psrv   *httpwire.Server
	oconns *trackingListener
	oh     *originHandler
	store  cache.Store
	// tstore is the timing decorator around store in a traced run.
	tstore    *tracedStore
	proxyAddr string
	diskDir   string

	// Prefetch drains run on their own goroutine, kicked by the driver on a
	// request-count schedule (cmd/piggyproxy kicks them on a timer).
	drainKick chan struct{}
	drainDone chan struct{}
	cancel    context.CancelFunc
}

// prefetchEvery and prefetchBatch set the drain schedule: after every
// prefetchEvery-th client request, up to prefetchBatch queued prefetches
// are fetched.
const (
	prefetchEvery = 32
	prefetchBatch = 8
)

// newStack builds and starts the stack for w over the generated inputs. tr
// is nil for an untraced run; otherwise every layer boundary the benchmark
// can reach from outside is wrapped in a timing decorator.
func newStack(w *workload, in *inputs, tmpRoot string, tr *tracer) (*stack, error) {
	s := &stack{w: w}
	ostore := server.NewStore()
	s.world = newWorld(in, ostore, w.churn)

	var vols core.Provider = core.NewDirVolumes(core.DirConfig{
		Level: 1, MTF: true, ServerMaxPiggy: 10, PartitionByType: true,
	})
	if tr != nil {
		vols = &tracedProvider{Provider: vols, t: tr}
	}
	s.origin = server.New(ostore, vols, s.world.now)
	s.oh = &originHandler{next: s.origin, delay: w.delay, t: tr}
	ol, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.oconns = &trackingListener{Listener: ol}
	s.osrv = &httpwire.Server{Handler: s.oh, Obs: obs.NewWireMetrics(s.origin.Obs(), "wire.server")}
	go s.osrv.Serve(s.oconns)
	originAddr := ol.Addr().String()

	if w.diskTier {
		s.diskDir, err = os.MkdirTemp(tmpRoot, "disk-")
		if err != nil {
			s.osrv.Close()
			return nil, err
		}
		ram := cache.NewSharded(w.ramBytes, 0, cache.PolicyFactory(cache.PiggybackLRU{}))
		ts, err := tiered.New(ram, tiered.Config{Dir: filepath.Join(s.diskDir, "segments"), DiskBytes: w.diskBytes})
		if err != nil {
			s.osrv.Close()
			return nil, err
		}
		s.store = ts
	} else {
		s.store = cache.NewSharded(64<<20, 0, cache.PolicyFactory(cache.PiggybackLRU{}))
	}
	pstore := s.store
	if tr != nil {
		s.tstore = &tracedStore{Store: s.store, t: tr}
		pstore = s.tstore
	}
	cfg := proxy.Config{
		Store:   pstore,
		Delta:   w.delta,
		Clock:   s.world.now,
		Resolve: func(string) (string, error) { return originAddr, nil },
	}
	if w.piggy {
		cfg.BaseFilter = core.Filter{MaxPiggy: 10}
		cfg.Prefetch = true
		cfg.DeltaEncoding = true
		// A volume is piggybacked again once it has been quiet for five
		// virtual minutes; the default (Δ) would let one piggyback per
		// volume per hour through, too few to invalidate anything in time.
		cfg.RPVTimeout = 300
	} else {
		cfg.BaseFilter = core.Filter{Disabled: true}
	}
	s.px = proxy.New(cfg)
	var ph httpwire.Handler = s.px
	if tr != nil {
		ph = &tracedProxy{next: s.px, t: tr}
	}
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.px.Close()
		s.osrv.Close()
		return nil, err
	}
	s.psrv = &httpwire.Server{Handler: ph, Obs: obs.NewWireMetrics(s.px.Obs(), "wire.server")}
	go s.psrv.Serve(pl)
	s.proxyAddr = pl.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.drainKick = make(chan struct{}, 1)
	s.drainDone = make(chan struct{})
	go func() {
		defer close(s.drainDone)
		for {
			select {
			case <-ctx.Done():
				return
			case <-s.drainKick:
			}
			bg := tr.beginBackground()
			s.px.DrainPrefetchesContext(ctx, prefetchBatch)
			tr.endBackground(bg)
		}
	}()
	return s, nil
}

// kickDrain asks the drain goroutine for one more batch; a kick arriving
// while a batch is still running is dropped.
func (s *stack) kickDrain() {
	select {
	case s.drainKick <- struct{}{}:
	default:
	}
}

// close stops every goroutine the stack started and removes its files.
func (s *stack) close() {
	s.cancel()
	<-s.drainDone
	s.psrv.Close()
	s.px.Close() // closes the store
	s.osrv.Close()
	if s.diskDir != "" {
		os.RemoveAll(s.diskDir)
	}
}

// originHandler stands between the origin's wire server and server.Server:
// it counts the exchanges the origin operator sees and injects the WAN
// delay after the origin has computed its answer.
type originHandler struct {
	next      httpwire.Handler
	delay     time.Duration
	t         *tracer
	exchanges atomic.Int64
}

func (o *originHandler) ServeWire(ctx context.Context, req *httpwire.Request) *httpwire.Response {
	o.exchanges.Add(1)
	ex, sv := o.t.beginOrigin(req)
	resp := o.next.ServeWire(ctx, req)
	o.t.end(sv)
	if o.delay > 0 {
		time.Sleep(o.delay)
	}
	o.t.endOrigin(ex, req.Path)
	return resp
}

// trackingListener hands out the accepted connections untouched — so the
// origin's vectored writes still reach a *net.TCPConn — and remembers them,
// so that the bytes crossing the proxy↔origin leg can be read from the
// kernel's per-socket counters.
type trackingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*trackedConn
}

type trackedConn struct {
	c    *net.TCPConn
	last int64 // last successful reading, kept once the socket is closed
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		l.mu.Lock()
		l.conns = append(l.conns, &trackedConn{c: tc})
		l.mu.Unlock()
	}
	return c, err
}

// wireBytes is the payload bytes carried so far, both directions, over every
// connection the listener accepted.
func (l *trackingListener) wireBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var sum int64
	for _, tc := range l.conns {
		if n, err := tcpPayloadBytes(tc.c); err == nil {
			tc.last = n
		}
		sum += tc.last
	}
	return sum
}

// tcpPayloadBytes reads tcpi_bytes_acked + tcpi_bytes_received from the
// socket's TCP_INFO (Linux ≥ 4.1; the offsets are those of struct tcp_info
// in linux/tcp.h, which only ever grows at the end).
func tcpPayloadBytes(c *net.TCPConn) (int64, error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return 0, err
	}
	const (
		offBytesAcked    = 120
		offBytesReceived = 128
	)
	var info [256]byte
	size := uint32(len(info))
	var errno syscall.Errno
	err = rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_GETSOCKOPT, fd, syscall.IPPROTO_TCP, syscall.TCP_INFO,
			uintptr(unsafe.Pointer(&info[0])), uintptr(unsafe.Pointer(&size)), 0)
	})
	if err != nil {
		return 0, err
	}
	if errno != 0 {
		return 0, errno
	}
	if size < offBytesReceived+8 {
		return 0, fmt.Errorf("TCP_INFO is %d bytes: kernel too old for byte counters", size)
	}
	acked := *(*uint64)(unsafe.Pointer(&info[offBytesAcked]))
	received := *(*uint64)(unsafe.Pointer(&info[offBytesReceived]))
	return int64(acked + received), nil
}

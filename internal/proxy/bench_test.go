package proxy

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"piggyback/internal/core"
	"piggyback/internal/httpwire"
	"piggyback/internal/obs"
	"piggyback/internal/server"
)

// Benchmarks of the proxy over loopback TCP, and the allocation and
// write-syscall budgets that pin their counts. A budget is the count
// measured when it was set: a rise fails the test, and a fall asks for
// the lower number.

// benchNow is the Unix time of the benchmarks' fixed clocks.
const benchNow = 899637753

// benchStack serves n resources, /a/r00.html onward, 2,000 bytes each
// and last modified a day before benchNow, from a loopback origin whose
// directory volumes piggyback at most maxPiggy elements (0: no limit).
// It returns the proxy cfg describes in front of that origin, on
// benchNow's fixed clock unless cfg sets one.
func benchStack(tb testing.TB, n, maxPiggy int, cfg Config) *Proxy {
	tb.Helper()
	clock := func() int64 { return benchNow }
	st := server.NewStore()
	for i := 0; i < n; i++ {
		st.Put(server.Resource{URL: fmt.Sprintf("/a/r%02d.html", i), Size: 2000, LastModified: benchNow - 86400})
	}
	vols := core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true, ServerMaxPiggy: maxPiggy})
	originAddr := benchServe(tb, server.New(st, vols, clock), nil)
	if cfg.Clock == nil {
		cfg.Clock = clock
	}
	cfg.Resolve = func(string) (string, error) { return originAddr, nil }
	p := New(cfg)
	tb.Cleanup(p.Close)
	return p
}

// benchServe runs h behind an httpwire.Server on loopback, counting into
// wm when it is not nil, and returns the server's address.
func benchServe(tb testing.TB, h httpwire.Handler, wm *obs.WireMetrics) string {
	tb.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv := &httpwire.Server{Handler: h, Obs: wm}
	go srv.Serve(l)
	tb.Cleanup(func() { srv.Close() })
	return l.Addr().String()
}

// benchRequest is a GET of the benchStack resource i through the proxy.
func benchRequest(i int) *httpwire.Request {
	return httpwire.NewRequest("GET", fmt.Sprintf("http://www.bench.test/a/r%02d.html", i))
}

func BenchmarkE2EProxyServer(b *testing.B) {
	// Live protocol over loopback TCP: origin + proxy + client.
	px := benchStack(b, 20, 10, Config{Delta: 600, BaseFilter: core.Filter{MaxPiggy: 10}})
	addr := benchServe(b, px, nil)
	client := httpwire.NewClient()
	defer client.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.DoContext(context.Background(), addr, benchRequest(i%20)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProxyUpstreamPoolParallel drives ServeWire from many
// goroutines with an expired cache, so every request revalidates
// upstream and the proxy's per-host connection pool carries the
// concurrency. GOMAXPROCS parallel clients over pooled origin
// connections is the configuration the paper's proxy runs in.
func BenchmarkProxyUpstreamPoolParallel(b *testing.B) {
	const nRes = 32
	// The proxy's clock jumps far past Δ on every call, so each request
	// finds its cached copy stale and revalidates upstream.
	var vnow atomic.Int64
	vnow.Store(benchNow)
	px := benchStack(b, nRes, 10, Config{
		Delta:      60,
		Clock:      func() int64 { return vnow.Add(10_000) },
		BaseFilter: core.Filter{MaxPiggy: 10},
	})

	b.ResetTimer()
	// Workers beyond GOMAXPROCS still overlap on upstream I/O, which is
	// what the pool multiplexes; don't let a small box serialize them.
	b.SetParallelism(16)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			req := benchRequest(i % nRes)
			i++
			resp := px.ServeWire(context.Background(), req)
			if resp.Status != 200 {
				b.Errorf("status %d for %s", resp.Status, req.Path)
				return
			}
		}
	})
	b.StopTimer()
	snap := px.Obs().Snapshot()
	b.ReportMetric(float64(snap.Counter("wire.upstream.conns_open")), "pooled-conns")
	b.ReportMetric(float64(snap.Counter("wire.upstream.dials")), "dials")
}

// freshHitProxy returns a proxy whose cache holds all nRes of its
// origin's resources for good, and one reusable request for each
// (ServeWire treats a request as read-only), so a measurement counts the
// serving path's allocations and not the construction of its requests.
func freshHitProxy(tb testing.TB, nRes int) (*Proxy, []*httpwire.Request) {
	tb.Helper()
	px := benchStack(tb, nRes, 10, Config{
		Delta:      1 << 30, // primed entries never go stale
		BaseFilter: core.Filter{MaxPiggy: 10},
	})
	reqs := make([]*httpwire.Request, nRes)
	for i := range reqs {
		reqs[i] = benchRequest(i)
		if resp := px.ServeWire(context.Background(), reqs[i]); resp.Status != 200 {
			tb.Fatalf("prime: status %d", resp.Status)
		}
	}
	return px, reqs
}

// serveFreshHit serves req from px and fails tb unless it was a fresh hit.
func serveFreshHit(tb testing.TB, px *Proxy, req *httpwire.Request) bool {
	tb.Helper()
	resp := px.ServeWire(context.Background(), req)
	if resp.Status != 200 || resp.Header.Get("X-Cache") != "HIT" {
		tb.Errorf("%s: status %d X-Cache %q", req.Path, resp.Status, resp.Header.Get("X-Cache"))
		return false
	}
	return true
}

// BenchmarkProxyFreshHitParallel measures the fully-cached hot path — the
// one the sharded cache parallelized — at GOMAXPROCS 1, 4, and 8: a primed
// proxy serves fresh hits only (no upstream I/O), so throughput is bounded
// by cache locking. With the single global mutex this curve was flat;
// sharding should scale it with procs.
func BenchmarkProxyFreshHitParallel(b *testing.B) {
	const nRes = 64
	px, reqs := freshHitProxy(b, nRes)
	for _, procs := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			b.RunParallel(func(pb *testing.PB) {
				for i := 0; pb.Next(); i++ {
					if !serveFreshHit(b, px, reqs[i%nRes]) {
						return
					}
				}
			})
		})
	}
}

// TestProxyFreshHitAllocBudget pins the allocations of
// BenchmarkProxyFreshHitParallel/procs=1's fresh hit: the response, its
// pre-sized header map, the cache key and the View copy-out.
func TestProxyFreshHitAllocBudget(t *testing.T) {
	skipAllocBudget(t)
	const nRes, budget = 64, 4
	px, reqs := freshHitProxy(t, nRes)
	i := 0
	got := testing.AllocsPerRun(200, func() {
		serveFreshHit(t, px, reqs[i%nRes])
		i++
	})
	if got != budget {
		t.Errorf("fresh hit: %v allocs/op, budget %d", got, budget)
	}
}

// BenchmarkWireFreshHit drives fresh cache hits through the full wire
// stack — real TCP client → proxy server — and reports the syscall budget
// alongside time: writes/op and reads/op are the proxy server's
// wire.server.syscalls.* counters divided by requests served. The vectored
// write path must answer a fresh hit (status line + headers + body) in ONE
// write syscall; TestWireBudgets holds it there.
func BenchmarkWireFreshHit(b *testing.B) {
	px := benchStack(b, 1, 0, Config{Delta: 1 << 30})
	wm := obs.NewWireMetrics(px.Obs(), "wire.server")
	addr := benchServe(b, px, wm)
	client := httpwire.NewClient()
	defer client.Close()
	req := benchRequest(0)
	if resp, err := client.DoContext(context.Background(), addr, req); err != nil || resp.Status != 200 {
		b.Fatalf("prime: %v (status %v)", err, resp)
	}

	reqs0, writes0, reads0 := wm.Requests.Load(), wm.WriteOps.Load(), wm.ReadOps.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.DoContext(context.Background(), addr, req)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Status != 200 || resp.Header.Get("X-Cache") != "HIT" {
			b.Fatalf("status %d X-Cache %q", resp.Status, resp.Header.Get("X-Cache"))
		}
	}
	b.StopTimer()
	served := float64(wm.Requests.Load() - reqs0)
	if served > 0 {
		b.ReportMetric(float64(wm.WriteOps.Load()-writes0)/served, "writes/op")
		b.ReportMetric(float64(wm.ReadOps.Load()-reads0)/served, "reads/op")
	}
}

// BenchmarkWireMiss is BenchmarkWireFreshHit's counterpart for the upstream
// leg: the cache holds nothing, so every request crosses the proxy's
// upstream client to an origin that answers at once. Eight callers, each
// over its own connection to the proxy and its own URLs (no single-flight
// sharing), keep several exchanges in flight on upstream connections that
// carry four each. writes/op and reads/op are the upstream client's
// syscalls per exchange: misses that meet on a connection share a writev
// burst or a buffer fill, so both sit at or just below one.
func BenchmarkWireMiss(b *testing.B) {
	const callers, perCaller = 8, 8
	px := benchStack(b, callers*perCaller, 0, Config{
		Delta:      1 << 30,
		CacheBytes: 1, // too small for any body: nothing is ever a hit
	})
	addr := benchServe(b, px, nil)

	upstream := func() (requests, writes, reads int64) {
		snap := px.Obs().Snapshot()
		return snap.Counter("wire.upstream.requests"), snap.Counter("wire.upstream.syscalls.writes"),
			snap.Counter("wire.upstream.syscalls.reads")
	}
	reqs0, writes0, reads0 := upstream()
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := httpwire.NewClient()
			defer client.Close()
			reqs := make([]*httpwire.Request, perCaller)
			for i := range reqs {
				reqs[i] = benchRequest(g*perCaller + i)
			}
			for i := 0; next.Add(1) <= int64(b.N); i++ {
				resp, err := client.DoContext(context.Background(), addr, reqs[i%perCaller])
				if err != nil {
					b.Error(err)
					return
				}
				if resp.Status != 200 || resp.Header.Get("X-Cache") != "MISS" {
					b.Errorf("status %d X-Cache %q", resp.Status, resp.Header.Get("X-Cache"))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	b.StopTimer()
	reqs1, writes1, reads1 := upstream()
	if served := float64(reqs1 - reqs0); served > 0 {
		b.ReportMetric(float64(writes1-writes0)/served, "writes/op")
		b.ReportMetric(float64(reads1-reads0)/served, "reads/op")
	}
}

// TestWireBudgets runs the wire benchmarks and pins their allocations
// and write syscalls per request: the fresh hit answers in exactly one
// write, and a miss's exchanges take at most one upstream write each.
func TestWireBudgets(t *testing.T) {
	skipAllocBudget(t)
	for _, tc := range []struct {
		name   string
		bench  func(*testing.B)
		allocs int64
		writes float64
		exact  bool // writes/op must equal writes, not just stay below it
	}{
		{"WireFreshHit", BenchmarkWireFreshHit, 26, 1, true},
		{"WireMiss", BenchmarkWireMiss, 78, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := testing.Benchmark(tc.bench)
			if r.N == 0 {
				t.Fatal("benchmark failed")
			}
			if got := r.AllocsPerOp(); got != tc.allocs {
				t.Errorf("%d allocs/op, budget %d", got, tc.allocs)
			}
			// The server counts a write after making it, so the client can
			// read the counters one write early or late: one write in the
			// whole run is the reading's error, not the path's.
			got, slack := r.Extra["writes/op"], 1/float64(r.N)
			if got > tc.writes+slack || tc.exact && got < tc.writes-slack {
				t.Errorf("%v writes/op over %d requests, budget %v", got, r.N, tc.writes)
			}
		})
	}
}

// skipAllocBudget skips an allocation budget where its count is not
// steady: in -short runs, and under the race detector, which makes
// sync.Pool drop items at random.
func skipAllocBudget(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("allocation budgets need steady-state runs")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector, so the pooled scratch is not steady")
	}
}

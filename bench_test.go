// Benchmarks: one per table and figure of the paper, plus the ablations
// DESIGN.md calls out and micro-benchmarks of the protocol hot paths. Each
// table/figure bench runs a scaled-down version of the corresponding
// cmd/experiments experiment and reports its headline metric via
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates the shape of
// the entire evaluation.
package piggyback_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"piggyback/internal/cache"
	"piggyback/internal/core"
	"piggyback/internal/delta"
	"piggyback/internal/httpwire"
	"piggyback/internal/obs"
	"piggyback/internal/proxy"
	"piggyback/internal/server"
	"piggyback/internal/sim"
	"piggyback/internal/trace"
	"piggyback/internal/tracegen"
)

// benchScale keeps per-iteration work small; the experiments command runs
// the full-scale versions.
const benchScale = 0.05

var (
	benchOnce sync.Once
	benchLogs map[string]trace.Log
	benchCli  trace.Log
	benchProb map[string]*core.ProbVolumes
)

func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		benchLogs = make(map[string]trace.Log)
		benchProb = make(map[string]*core.ProbVolumes)
		for _, p := range []struct {
			name string
			cfg  tracegen.SiteConfig
		}{
			{"aiusa", tracegen.ProfileAIUSA(benchScale)},
			{"apache", tracegen.ProfileApache(benchScale)},
			{"sun", tracegen.ProfileSun(benchScale)},
		} {
			log, _ := tracegen.GenerateServerLog(p.cfg)
			benchLogs[p.name] = log.Clean().FilterPopular(10)
		}
		cli, _ := tracegen.GenerateClientLog(tracegen.ProfileATT(benchScale))
		benchCli = cli.Clean()
		for name, log := range benchLogs {
			bld := core.NewProbBuilder(core.ProbConfig{T: 300, Pt: 0.05})
			bld.ObserveLog(log)
			benchProb[name] = bld.Build(0.02)
		}
	})
}

func reportSim(b *testing.B, r sim.Result) {
	b.Helper()
	b.ReportMetric(r.FractionPredicted(), "fracPredicted")
	b.ReportMetric(r.TruePredictionFraction(), "truePrediction")
	b.ReportMetric(r.AvgPiggybackSize(), "avgPiggyback")
}

func BenchmarkFig1DirectoryLocality(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		stats := sim.AnalyzeLocality(benchCli, []int{0, 1, 2, 3, 4}, true)
		b.ReportMetric(stats[2].SeenBefore, "level2SeenBefore")
	}
}

func BenchmarkFig2PiggybackSizeVsFilter(b *testing.B) {
	benchSetup(b)
	log := benchLogs["aiusa"]
	for i := 0; i < b.N; i++ {
		var last sim.Result
		for _, f := range []int{10, 100} {
			d := core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true})
			last = sim.New(sim.Config{T: 300, Provider: d, Feed: true,
				BaseFilter: core.Filter{MinAccess: f}}).Run(log)
		}
		b.ReportMetric(last.AvgPiggybackSize(), "avgPiggyback@filter100")
	}
}

func BenchmarkFig3DirVolumeAccuracy(b *testing.B) {
	benchSetup(b)
	log := benchLogs["sun"]
	for i := 0; i < b.N; i++ {
		d := core.NewDirVolumes(core.DirConfig{Level: 2, MTF: true})
		r := sim.New(sim.Config{T: 300, C: 7200, Provider: d, Feed: true,
			BaseFilter: core.Filter{MinAccess: 10}}).Run(log)
		reportSim(b, r)
		b.ReportMetric(r.UpdateFraction(), "updateFraction")
	}
}

func BenchmarkFig4RPVThinning(b *testing.B) {
	benchSetup(b)
	log := benchLogs["apache"]
	for i := 0; i < b.N; i++ {
		d := core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true})
		r := sim.New(sim.Config{T: 300, Provider: d, Feed: true,
			BaseFilter: core.Filter{MinAccess: 10},
			UseRPV:     true, RPVTimeout: 30}).Run(log)
		b.ReportMetric(float64(r.PiggybackMessages), "piggybackMsgs")
		b.ReportMetric(r.FractionPredicted(), "fracPredicted")
	}
}

func BenchmarkFig5ProbThreshold(b *testing.B) {
	benchSetup(b)
	log := benchLogs["sun"]
	base := benchProb["sun"]
	for i := 0; i < b.N; i++ {
		r := sim.New(sim.Config{T: 300, Provider: base.WithPt(0.2)}).Run(log)
		reportSim(b, r)
	}
}

func BenchmarkFig6ProbRecallVsSize(b *testing.B) {
	benchSetup(b)
	log := benchLogs["aiusa"]
	base := benchProb["aiusa"]
	for i := 0; i < b.N; i++ {
		thinned := base.Thin(log, 0.2)
		r := sim.New(sim.Config{T: 300, Provider: thinned.WithPt(0.25)}).Run(log)
		reportSim(b, r)
	}
}

func BenchmarkFig7Precision(b *testing.B) {
	benchSetup(b)
	log := benchLogs["sun"]
	base := benchProb["sun"]
	thinned := base.Thin(log, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := sim.New(sim.Config{T: 300, Provider: thinned.WithPt(0.25)}).Run(log)
		b.ReportMetric(r.TruePredictionFraction(), "truePrediction")
		b.ReportMetric(r.AvgPiggybackSize(), "avgPiggyback")
	}
}

func BenchmarkFig8PrecisionRecall(b *testing.B) {
	benchSetup(b)
	log := benchLogs["apache"]
	thinned := benchProb["apache"].Thin(log, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := sim.New(sim.Config{T: 300, Provider: thinned.WithPt(0.3)}).Run(log)
		b.ReportMetric(r.FractionPredicted(), "recall")
		b.ReportMetric(r.TruePredictionFraction(), "precision")
	}
}

func BenchmarkTable1UpdateFraction(b *testing.B) {
	benchSetup(b)
	log := benchLogs["sun"]
	vols := benchProb["sun"].WithPt(0.25).Thin(log, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := sim.New(sim.Config{T: 300, C: 7200, Provider: vols}).Run(log)
		b.ReportMetric(r.FracPrevWithinC(), "prevWithin2hr")
		b.ReportMetric(r.FracUpdatedTC(), "piggybackUpdated")
	}
}

func BenchmarkTable2ClientLogs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		log, _ := tracegen.GenerateClientLog(tracegen.ProfileATT(benchScale))
		b.ReportMetric(float64(log.UniqueResources()), "uniqueResources")
	}
}

func BenchmarkTable3ServerLogs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		log, _ := tracegen.GenerateServerLog(tracegen.ProfileAIUSA(benchScale))
		b.ReportMetric(float64(len(log))/float64(log.Clients()), "reqPerSource")
	}
}

func BenchmarkSec23Overheads(b *testing.B) {
	benchSetup(b)
	log := benchLogs["sun"]
	vols := benchProb["sun"].WithPt(0.25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := sim.New(sim.Config{T: 300, Provider: vols}).Run(log)
		b.ReportMetric(r.AvgPiggybackBytes(), "piggybackBytes")
	}
}

func BenchmarkSec4Applications(b *testing.B) {
	benchSetup(b)
	log := benchLogs["apache"]
	thinned := benchProb["apache"].Thin(log, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := sim.PrefetchTradeoff(log, thinned, []float64{0.25})
		b.ReportMetric(pts[0].Recall, "prefetchRecall")
		b.ReportMetric(pts[0].FutileFraction, "futileFraction")
	}
}

func BenchmarkAblationSampledCounters(b *testing.B) {
	benchSetup(b)
	log := benchLogs["aiusa"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := core.NewProbBuilder(core.ProbConfig{T: 300, Pt: 0.25, Sampling: true, SampleK: 2, UnbiasedInit: true, Seed: 5})
		bld.ObserveLog(log)
		b.ReportMetric(float64(bld.NumCounters()), "pairCounters")
	}
}

func BenchmarkAblationMTFvsFIFO(b *testing.B) {
	benchSetup(b)
	log := benchLogs["aiusa"]
	for _, mtf := range []bool{true, false} {
		name := "fifo"
		if mtf {
			name = "mtf"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := core.NewDirVolumes(core.DirConfig{Level: 1, MTF: mtf, ServerMaxPiggy: 5})
				r := sim.New(sim.Config{T: 300, Provider: d, Feed: true}).Run(log)
				b.ReportMetric(r.FractionPredicted(), "fracPredicted")
			}
		})
	}
}

func BenchmarkAblationReplacement(b *testing.B) {
	benchSetup(b)
	log := benchLogs["aiusa"]
	policies := []struct {
		name   string
		make   func() cache.Policy
		piggyb bool
	}{
		{"lru", func() cache.Policy { return cache.LRU{} }, false},
		{"gdsize", func() cache.Policy { return &cache.GDSize{} }, false},
		{"piggyback-lru", func() cache.Policy { return cache.PiggybackLRU{} }, true},
	}
	for _, p := range policies {
		b.Run(p.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var prov core.Provider
				if p.piggyb {
					prov = core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true, ServerMaxPiggy: 10})
				}
				r := sim.ReplayReplacement(log, 64<<10, p.make(), prov, 300)
				b.ReportMetric(r.HitRate, "hitRate")
			}
		})
	}
}

func BenchmarkE2EProxyServer(b *testing.B) {
	// Live protocol over loopback TCP: origin + proxy + client.
	now := int64(899637753)
	clock := func() int64 { return now }
	st := server.NewStore()
	for i := 0; i < 20; i++ {
		st.Put(server.Resource{URL: fmt.Sprintf("/a/r%02d.html", i), Size: 2000, LastModified: now - 1000})
	}
	vols := core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true, ServerMaxPiggy: 10})
	origin := server.New(st, vols, clock)
	ol, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	osrv := &httpwire.Server{Handler: origin}
	go osrv.Serve(ol)
	defer osrv.Close()

	px := proxy.New(proxy.Config{
		Delta: 600, Clock: clock,
		Resolve:    func(string) (string, error) { return ol.Addr().String(), nil },
		BaseFilter: core.Filter{MaxPiggy: 10},
	})
	defer px.Close()
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	psrv := &httpwire.Server{Handler: px}
	go psrv.Serve(pl)
	defer psrv.Close()

	client := httpwire.NewClient()
	defer client.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		url := fmt.Sprintf("http://www.bench.test/a/r%02d.html", i%20)
		if _, err := client.DoContext(context.Background(), pl.Addr().String(), httpwire.NewRequest("GET", url)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProxyUpstreamPoolParallel drives ServeWire from many
// goroutines with an expired cache (Δ=0), so every request revalidates
// upstream and the proxy's per-host connection pool carries the
// concurrency. GOMAXPROCS parallel clients over pooled origin
// connections is the configuration the paper's proxy runs in.
func BenchmarkProxyUpstreamPoolParallel(b *testing.B) {
	now := time.Now().Unix()
	clock := func() int64 { return time.Now().Unix() }
	const nRes = 32
	st := server.NewStore()
	for i := 0; i < nRes; i++ {
		st.Put(server.Resource{URL: fmt.Sprintf("/a/r%02d.html", i),
			Size: 2000, LastModified: now - 86400})
	}
	vols := core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true, ServerMaxPiggy: 10})
	origin := server.New(st, vols, clock)
	ol, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	osrv := &httpwire.Server{Handler: origin}
	go osrv.Serve(ol)
	defer osrv.Close()

	// The proxy's clock jumps far past Δ on every call, so each request
	// finds its cached copy stale and revalidates upstream.
	var vnow atomic.Int64
	vnow.Store(now)
	px := proxy.New(proxy.Config{
		Delta:      60,
		Clock:      func() int64 { return vnow.Add(10_000) },
		Resolve:    func(string) (string, error) { return ol.Addr().String(), nil },
		BaseFilter: core.Filter{MaxPiggy: 10},
	})
	defer px.Close()

	b.ResetTimer()
	// Workers beyond GOMAXPROCS still overlap on upstream I/O, which is
	// what the pool multiplexes; don't let a small box serialize them.
	b.SetParallelism(16)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			path := fmt.Sprintf("/a/r%02d.html", i%nRes)
			i++
			req := httpwire.NewRequest("GET", "http://www.bench.test"+path)
			resp := px.ServeWire(context.Background(), req)
			if resp.Status != 200 {
				b.Errorf("status %d for %s", resp.Status, path)
				return
			}
		}
	})
	b.StopTimer()
	snap := px.Obs().Snapshot()
	b.ReportMetric(float64(snap.Counter("wire.upstream.conns_open")), "pooled-conns")
	b.ReportMetric(float64(snap.Counter("wire.upstream.dials")), "dials")
}

// BenchmarkProxyFreshHitParallel measures the fully-cached hot path — the
// one the sharded cache parallelized — at GOMAXPROCS 1, 4, and 8: a primed
// proxy serves fresh hits only (no upstream I/O), so throughput is bounded
// by cache locking. With the single global mutex this curve was flat;
// sharding should scale it with procs.
func BenchmarkProxyFreshHitParallel(b *testing.B) {
	now := int64(899637753)
	clock := func() int64 { return now }
	const nRes = 64
	st := server.NewStore()
	for i := 0; i < nRes; i++ {
		st.Put(server.Resource{URL: fmt.Sprintf("/a/r%02d.html", i),
			Size: 2000, LastModified: now - 86400})
	}
	vols := core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true, ServerMaxPiggy: 10})
	origin := server.New(st, vols, clock)
	ol, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	osrv := &httpwire.Server{Handler: origin}
	go osrv.Serve(ol)
	defer osrv.Close()

	px := proxy.New(proxy.Config{
		Delta:      1 << 30, // primed entries never go stale
		Clock:      clock,
		Resolve:    func(string) (string, error) { return ol.Addr().String(), nil },
		BaseFilter: core.Filter{MaxPiggy: 10},
	})
	defer px.Close()
	for i := 0; i < nRes; i++ {
		req := httpwire.NewRequest("GET", fmt.Sprintf("http://www.bench.test/a/r%02d.html", i))
		if resp := px.ServeWire(context.Background(), req); resp.Status != 200 {
			b.Fatalf("prime: status %d", resp.Status)
		}
	}

	// Requests are prebuilt and reused (ServeWire treats them as
	// read-only) so the benchmark counts the serving path's allocations,
	// not the harness's own request construction.
	reqs := make([]*httpwire.Request, nRes)
	for i := range reqs {
		reqs[i] = httpwire.NewRequest("GET", fmt.Sprintf("http://www.bench.test/a/r%02d.html", i))
	}
	for _, procs := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					req := reqs[i%nRes]
					i++
					resp := px.ServeWire(context.Background(), req)
					if resp.Status != 200 || resp.Header.Get("X-Cache") != "HIT" {
						b.Errorf("%s: status %d X-Cache %q", req.Path, resp.Status, resp.Header.Get("X-Cache"))
						return
					}
				}
			})
		})
	}
}

// Micro-benchmarks of the protocol hot paths.

func BenchmarkDirVolumePiggyback(b *testing.B) {
	d := core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true, ServerMaxPiggy: 10, PartitionByType: true})
	for i := 0; i < 200; i++ {
		d.Observe(core.Access{Source: "s", Time: int64(i),
			Element: core.Element{URL: fmt.Sprintf("/a/r%03d.html", i), Size: int64(i)}})
	}
	f := core.Filter{MaxPiggy: 10, MinAccess: 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Piggyback("/a/r000.html", int64(i), f)
	}
}

func BenchmarkProbVolumePiggyback(b *testing.B) {
	benchSetup(b)
	vols := benchProb["aiusa"].WithPt(0.2)
	log := benchLogs["aiusa"]
	f := core.Filter{MaxPiggy: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vols.Piggyback(log[i%len(log)].URL, int64(i), f)
	}
}

func BenchmarkProbBuilderObserve(b *testing.B) {
	benchSetup(b)
	log := benchLogs["aiusa"]
	b.ResetTimer()
	bld := core.NewProbBuilder(core.ProbConfig{T: 300, Pt: 0.2})
	for i := 0; i < b.N; i++ {
		bld.Observe(log[i%len(log)])
	}
}

func BenchmarkFilterHeaderRoundTrip(b *testing.B) {
	f := core.Filter{MaxPiggy: 10, RPV: []core.VolumeID{3, 4, 9}, MinAccess: 50, ProbThreshold: 0.25}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := f.Header()
		if _, err := core.ParseFilter(h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChunkedTrailerRoundTrip(b *testing.B) {
	resp := httpwire.NewResponse(200)
	resp.Body = bytes.Repeat([]byte("x"), 1530)
	resp.Trailer = httpwire.Header{}
	msg := core.Message{Volume: 17, Elements: []core.Element{
		{URL: "/products/java/docs/page-0001-index.html", Size: 13900, LastModified: 899637753},
		{URL: "/products/java/docs/inline-img-0001-0.gif", Size: 2000, LastModified: 899630000},
	}}
	httpwire.AttachPiggyback(resp, msg)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := httpwire.WriteResponse(bufio.NewWriter(&buf), resp, false); err != nil {
			b.Fatal(err)
		}
		if _, err := httpwire.ReadResponse(bufio.NewReader(&buf), false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCachePutGet(b *testing.B) {
	c := cache.New(1<<20, cache.PiggybackLRU{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		url := fmt.Sprintf("/r%04d", i%2000)
		if _, ok := c.Get(url, int64(i)); !ok {
			c.Put(cache.Entry{URL: url, Size: 700, Expires: int64(i + 300)}, int64(i))
		}
	}
}

// Extension benches: hierarchical caching (§1) and the popular-resources
// fallback volume (§5).

func BenchmarkExtHierarchicalCaching(b *testing.B) {
	benchSetup(b)
	log := benchLogs["aiusa"]
	for i := 0; i < b.N; i++ {
		vols := core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true, ServerMaxPiggy: 10})
		r := sim.ReplayHierarchy(log, sim.HierarchyConfig{
			Children: 4, Delta: 900, Provider: vols, RPVTimeout: 60,
		})
		b.ReportMetric(r.OriginLoad(), "originLoad")
		b.ReportMetric(float64(r.AvoidedValidations), "avoidedValidations")
	}
}

func BenchmarkExtPopularVolume(b *testing.B) {
	benchSetup(b)
	log := benchLogs["aiusa"]
	for i := 0; i < b.N; i++ {
		inner := core.NewDirVolumes(core.DirConfig{Level: 2, MTF: true, ServerMaxPiggy: 10})
		pop := core.NewPopularProvider(inner, 10)
		r := sim.New(sim.Config{T: 300, Provider: pop, Feed: true,
			BaseFilter: core.Filter{MinAccess: 10}, UseRPV: true, RPVTimeout: 300}).Run(log)
		b.ReportMetric(r.FractionPredicted(), "fracPredicted")
	}
}

func BenchmarkExtVolumePersistence(b *testing.B) {
	benchSetup(b)
	vols := benchProb["aiusa"]
	var buf bytes.Buffer
	var written int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		n, err := vols.WriteTo(&buf)
		if err != nil {
			b.Fatal(err)
		}
		written = n
		if _, err := core.ReadProbVolumes(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(written), "bytes")
}

func BenchmarkExtDeltaEncoding(b *testing.B) {
	old := bytes.Repeat([]byte("the quick brown fox "), 1600) // 32 kB
	new := append([]byte(nil), old...)
	new[100] = 'X'
	new[20000] = 'Y'
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := delta.Make(old, new, delta.DefaultBlockSize)
		enc := p.Encode()
		dec, err := delta.Decode(enc)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := delta.Apply(old, dec); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(enc)), "patchBytes")
	}
}

// TestProxyFreshHitAllocBudget pins the serving path's allocation count:
// a fully-cached hit must stay within budget or the perf work regresses
// silently. The budget has one alloc of slack over the measured count
// (response struct, pre-sized header map, cache key, View copy-out).
func TestProxyFreshHitAllocBudget(t *testing.T) {
	now := int64(899637753)
	clock := func() int64 { return now }
	st := server.NewStore()
	st.Put(server.Resource{URL: "/a/x.html", Size: 2000, LastModified: now - 86400})
	origin := server.New(st, core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true}), clock)
	ol, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	osrv := &httpwire.Server{Handler: origin}
	go osrv.Serve(ol)
	defer osrv.Close()

	px := proxy.New(proxy.Config{
		Delta:   1 << 30,
		Clock:   clock,
		Resolve: func(string) (string, error) { return ol.Addr().String(), nil },
	})
	defer px.Close()
	req := httpwire.NewRequest("GET", "http://www.bench.test/a/x.html")
	ctx := context.Background()
	if resp := px.ServeWire(ctx, req); resp.Status != 200 {
		t.Fatalf("prime: status %d", resp.Status)
	}

	const budget = 5
	avg := testing.AllocsPerRun(200, func() {
		resp := px.ServeWire(ctx, req)
		if resp.Status != 200 || resp.Header.Get("X-Cache") != "HIT" {
			t.Fatalf("status %d X-Cache %q", resp.Status, resp.Header.Get("X-Cache"))
		}
	})
	if avg > budget {
		t.Errorf("fresh hit allocates %.1f/op, budget %d", avg, budget)
	}
}

// BenchmarkWireFreshHit drives fresh cache hits through the full wire
// stack — real TCP client → proxy server — and reports the syscall budget
// alongside time: writes/op and reads/op are the proxy server's
// wire.server.syscalls.* counters divided by requests served. The vectored
// write path must answer a fresh hit (status line + headers + body) in ONE
// write syscall; cmd/benchgate gates the writes/op column absolutely.
func BenchmarkWireFreshHit(b *testing.B) {
	now := int64(899637753)
	clock := func() int64 { return now }
	st := server.NewStore()
	st.Put(server.Resource{URL: "/a/x.html", Size: 2000, LastModified: now - 86400})
	origin := server.New(st, core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true}), clock)
	ol, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	osrv := &httpwire.Server{Handler: origin}
	go osrv.Serve(ol)
	defer osrv.Close()

	px := proxy.New(proxy.Config{
		Delta:   1 << 30,
		Clock:   clock,
		Resolve: func(string) (string, error) { return ol.Addr().String(), nil },
	})
	defer px.Close()
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	wm := obs.NewWireMetrics(px.Obs(), "wire.server")
	psrv := &httpwire.Server{Handler: px, Obs: wm}
	go psrv.Serve(pl)
	defer psrv.Close()

	client := httpwire.NewClient()
	defer client.Close()
	req := httpwire.NewRequest("GET", "http://www.bench.test/a/x.html")
	if resp, err := client.DoContext(context.Background(), pl.Addr().String(), req); err != nil || resp.Status != 200 {
		b.Fatalf("prime: %v (status %v)", err, resp)
	}

	reqs0, writes0, reads0 := wm.Requests.Load(), wm.WriteOps.Load(), wm.ReadOps.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.DoContext(context.Background(), pl.Addr().String(), req)
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
	now := int64(899637753)
	clock := func() int64 { return now }
	st := server.NewStore()
	for i := 0; i < callers*perCaller; i++ {
		st.Put(server.Resource{URL: fmt.Sprintf("/a/r%02d.html", i), Size: 2000, LastModified: now - 86400})
	}
	origin := server.New(st, core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true}), clock)
	ol, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	osrv := &httpwire.Server{Handler: origin}
	go osrv.Serve(ol)
	defer osrv.Close()

	px := proxy.New(proxy.Config{
		Delta:      1 << 30,
		Clock:      clock,
		Resolve:    func(string) (string, error) { return ol.Addr().String(), nil },
		CacheBytes: 1, // too small for any body: nothing is ever a hit
	})
	defer px.Close()
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	psrv := &httpwire.Server{Handler: px}
	go psrv.Serve(pl)
	defer psrv.Close()

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
				reqs[i] = httpwire.NewRequest("GET", fmt.Sprintf("http://www.bench.test/a/r%02d.html", g*perCaller+i))
			}
			for i := 0; next.Add(1) <= int64(b.N); i++ {
				resp, err := client.DoContext(context.Background(), pl.Addr().String(), reqs[i%perCaller])
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

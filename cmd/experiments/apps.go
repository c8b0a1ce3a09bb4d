package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"piggyback/internal/core"
	"piggyback/internal/httpwire"
	"piggyback/internal/metrics"
	"piggyback/internal/proxy"
	"piggyback/internal/server"
	"piggyback/internal/sim"
	"piggyback/internal/tracegen"
)

// runSec23 reproduces the §2.3 wire-overhead arithmetic: element size,
// message size for the Sun workload, and the packet-savings argument.
func runSec23(l *lab) {
	log := l.serverLog("sun")
	vols := l.baseProb("sun").WithPt(0.25).Thin(log, 0.2)
	r := sim.New(sim.Config{T: 300, Provider: vols}).Run(log)

	// Element cost: URL length + 8B Last-Modified + 8B size.
	var urlBytes, n int
	seen := map[string]bool{}
	for i := range log {
		if !seen[log[i].URL] {
			seen[log[i].URL] = true
			urlBytes += len(log[i].URL)
			n++
		}
	}
	avgURL := float64(urlBytes) / float64(n)
	tbl := &metrics.Table{Header: []string{"quantity", "measured", "paper"}}
	tbl.AddRow("avg URL length (B)", avgURL, "~50")
	tbl.AddRow("bytes per element", avgURL+16, "66")
	tbl.AddRow("avg piggyback elements (sun-like)", r.AvgPiggybackSize(), "6")
	tbl.AddRow("avg piggyback message (B)", r.AvgPiggybackBytes(), "398")
	tbl.AddRow("mean response size (B)", log.MeanSize(), "13900")
	tbl.AddRow("median response size (B)", log.MedianSize(), "1530")
	fmt.Print(tbl.String())

	// Packet accounting: a piggyback under ~1460B of spare MSS often
	// rides free; every future TCP connection obviated saves >= 2 pkts.
	free := 0
	if r.AvgPiggybackBytes() < 1460 {
		free = 1
	}
	fmt.Printf("piggyback fits alongside the response without a new packet: %v;\n", free == 1)
	fmt.Printf("predicted requests that could reuse/skip connections: %s of accesses\n",
		metrics.Pct(r.FractionPredicted()))
}

// runSec4 reproduces the §4 application numbers: cache coherency a-priori
// refreshes, prefetching tradeoffs, and informed-fetching coverage.
func runSec4(l *lab) {
	fmt.Println("-- coherency: a-priori refreshment of cached requests --")
	tbl := &metrics.Table{Header: []string{"log", "cached (<2h)", "quick repeat (<5m, of cached)", "a-priori refresh (of cached)", "avg piggyback", "| paper refresh", "22-46%"}}
	for _, name := range []string{"aiusa", "apache", "sun"} {
		log := l.serverLog(name)
		vols := l.baseProb(name).WithPt(0.25).Thin(log, 0.2)
		r := sim.New(sim.Config{T: 300, C: 7200, Provider: vols}).Run(log)
		rep := sim.Coherency(r)
		tbl.AddRow(name+"-like", metrics.Pct(rep.CachedShare), metrics.Pct(rep.QuickRepeatShare),
			metrics.Pct(rep.APrioriRefreshShare), rep.AvgPiggybackSize, "|", "")
	}
	fmt.Print(tbl.String())
	fmt.Println("(paper: 40-50% of cached requests repeat within 5 minutes; best volumes")
	fmt.Println(" refresh an additional 22-46% with piggyback sizes of only 1-5)")

	fmt.Println("-- prefetching: recall vs futile fetches --")
	tbl2 := &metrics.Table{Header: []string{"log", "p_t", "prefetchable", "futile fetches", "bandwidth increase"}}
	for _, name := range []string{"apache", "sun"} {
		log := l.serverLog(name)
		eff2 := l.baseProb(name).Thin(log, 0.2)
		for _, p := range sim.PrefetchTradeoff(log, eff2, []float64{0.1, 0.25, 0.5, 0.7}) {
			tbl2.AddRow(name+"-like", p.Threshold, metrics.Pct(p.Recall),
				metrics.Pct(p.FutileFraction), metrics.Pct(p.BandwidthIncrease))
		}
	}
	fmt.Print(tbl2.String())
	fmt.Println("(paper: Apache 40% prefetched at 20% futile (10% bandwidth) or 55% at 50%;")
	fmt.Println(" Sun 30% at 15% futile (5% bandwidth) or 70% at 50% (35%))")

	fmt.Println("-- informed fetching: requests with meta-attributes known in advance --")
	tbl3 := &metrics.Table{Header: []string{"log", "fraction informed", "avg piggyback"}}
	for _, name := range []string{"aiusa", "apache", "sun"} {
		log := l.serverLog(name)
		vols := l.baseProb(name).WithPt(0.1).Thin(log, 0.2)
		r := sim.New(sim.Config{T: 300, Provider: vols}).Run(log)
		tbl3.AddRow(name+"-like", metrics.Pct(r.FractionPredicted()), r.AvgPiggybackSize())
	}
	fmt.Print(tbl3.String())
	fmt.Println("(paper: best volumes inform 55-80% of requests with very small piggybacks)")
}

// runE2E drives the full protocol stack over loopback TCP: a generated
// site served by a cooperating origin, a caching proxy with prefetching,
// and a client replaying part of the trace — then repeats the exchange
// through a transparent volume center in front of a non-cooperating origin.
func runE2E(l *lab) {
	cfg := tracegen.SiteConfig{
		Name: "e2e", Seed: 77, Pages: 40, Dirs: 5, MaxDepth: 2,
		MeanImagesPerPage: 2, Clients: 10, Requests: 1200,
		Duration: 6 * 3600,
	}
	log, site := tracegen.GenerateServerLog(cfg)
	now := log[0].Time
	clock := func() int64 { return now }

	st := server.NewStore()
	for _, r := range site.ResourceTable() {
		st.Put(server.Resource{URL: r.URL, Size: r.Size, LastModified: r.LastModifiedAt(now)})
	}
	vols := core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true, ServerMaxPiggy: 10, PartitionByType: true})
	origin := server.New(st, vols, clock)
	ol, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Println("listen:", err)
		return
	}
	osrv := &httpwire.Server{Handler: origin}
	go osrv.Serve(ol)
	defer osrv.Close()

	// Two proxies share the origin: the server's volumes aggregate
	// access patterns across proxies, so each proxy's piggybacks can
	// name resources it has never seen — the prefetching case.
	var proxies [2]*proxy.Proxy
	var addrs [2]string
	for i := range proxies {
		px := proxy.New(proxy.Config{
			Delta:         900,
			Clock:         clock,
			Resolve:       func(string) (string, error) { return ol.Addr().String(), nil },
			Prefetch:      true,
			ReportHits:    true,
			DeltaEncoding: true,
		})
		defer px.Close()
		pl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Println("listen:", err)
			return
		}
		psrv := &httpwire.Server{Handler: px}
		go psrv.Serve(pl)
		defer psrv.Close()
		proxies[i] = px
		addrs[i] = pl.Addr().String()
	}

	client := httpwire.NewClient()
	defer client.Close()
	replay := log
	if len(replay) > 800 {
		replay = replay[:800]
	}
	start := time.Now()
	resources := site.ResourceTable()
	for i := range replay {
		now = replay[i].Time
		// Each trace client is homed at one of the two proxies.
		which := 0
		if len(replay[i].Client) > 0 && replay[i].Client[len(replay[i].Client)-1]%2 == 1 {
			which = 1
		}
		req := httpwire.NewRequest("GET", "http://www.e2e.test"+replay[i].URL)
		if _, err := client.DoContext(context.Background(), addrs[which], req); err != nil {
			fmt.Println("client request:", err)
			return
		}
		if i%10 == 0 {
			proxies[which].DrainPrefetchesContext(context.Background(), 4)
		}
		// Content churn: a resource changes every ~40 requests, so
		// stale validations exercise the delta-encoding path.
		if i%40 == 39 {
			st.Modify(resources[i%len(resources)].URL, now, 0)
		}
	}
	elapsed := time.Since(start)

	os := origin.Stats()
	tbl := &metrics.Table{Header: []string{"metric", "proxy A", "proxy B"}}
	pa, pb := proxies[0].Stats(), proxies[1].Stats()
	tbl.AddRow("client requests", pa.ClientRequests, pb.ClientRequests)
	tbl.AddRow("served fresh from cache", pa.FreshHits, pb.FreshHits)
	tbl.AddRow("validations (IMS)", pa.Validations, pb.Validations)
	tbl.AddRow("piggybacks received", pa.PiggybacksReceived, pb.PiggybacksReceived)
	tbl.AddRow("piggyback refreshes", pa.Refreshes, pb.Refreshes)
	tbl.AddRow("prefetches", pa.Prefetches, pb.Prefetches)
	tbl.AddRow("useful prefetches", pa.UsefulPrefetches, pb.UsefulPrefetches)
	tbl.AddRow("delta updates (bytes saved)",
		fmt.Sprintf("%d (%d)", pa.DeltaUpdates, pa.DeltaBytesSaved),
		fmt.Sprintf("%d (%d)", pb.DeltaUpdates, pb.DeltaBytesSaved))
	tbl.AddRow("cache hits reported", pa.HitsReported, pb.HitsReported)
	tbl.AddRow("cache hit rate", proxies[0].CacheHitRate(), proxies[1].CacheHitRate())
	fmt.Print(tbl.String())
	fmt.Printf("origin requests: %d for %d client requests; piggybacks sent: %d; wall time %v\n",
		os.Requests, len(replay), os.PiggybacksSent, elapsed.Round(time.Millisecond))
	if pa.PiggybacksReceived+pb.PiggybacksReceived == 0 {
		fmt.Println("WARNING: no piggybacks flowed end to end")
	}
}

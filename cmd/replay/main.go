// Command replay drives an access log (Common Log Format, e.g. produced
// by cmd/tracegen or taken from a real httpd) through a live
// origin + caching-proxy pair over loopback TCP, reporting end-to-end
// protocol statistics. It is the bridge between the trace-driven
// simulations and the real wire implementation: the same workload, every
// byte over real sockets.
//
// Usage:
//
//	tracegen -profile aiusa -scale 0.1 -o aiusa.log
//	replay -log aiusa.log [-delta 900] [-maxpiggy 10] [-prefetch] [-limit 5000]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"piggyback/internal/core"
	"piggyback/internal/httpwire"
	"piggyback/internal/proxy"
	"piggyback/internal/server"
	"piggyback/internal/trace"
)

func main() {
	logPath := flag.String("log", "", "Common Log Format file to replay (required)")
	delta := flag.Int64("delta", 900, "proxy freshness interval Δ (seconds)")
	maxPiggy := flag.Int("maxpiggy", 10, "filter maxpiggy attribute")
	level := flag.Int("level", 1, "origin directory-volume level")
	prefetch := flag.Bool("prefetch", false, "enable proxy prefetching")
	reportHits := flag.Bool("reporthits", false, "enable Piggy-Hits upstream reporting")
	limit := flag.Int("limit", 0, "replay at most this many records (0 = all)")
	flag.Parse()
	if *logPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*logPath)
	if err != nil {
		log.Fatal(err)
	}
	records, err := trace.NewReader(f).ReadAll()
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	records.SortByTime()
	if *limit > 0 && len(records) > *limit {
		records = records[:*limit]
	}
	if len(records) == 0 {
		log.Fatal("replay: empty log")
	}

	// Simulated clock follows the trace.
	now := records[0].Time
	clock := func() int64 { return now }

	// Origin: resources discovered from the log itself (the log carries
	// sizes; Last-Modified defaults to well before the trace).
	store := server.NewStore()
	for i := range records {
		r := &records[i]
		if _, ok := store.Get(r.URL); !ok && r.Size > 0 {
			store.Put(server.Resource{URL: r.URL, Size: r.Size, LastModified: r.Time - 86400})
		}
	}
	vols := core.NewDirVolumes(core.DirConfig{
		Level: *level, MTF: true, ServerMaxPiggy: *maxPiggy, PartitionByType: true,
	})
	origin := server.New(store, vols, clock)
	ol, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	osrv := &httpwire.Server{Handler: origin}
	go osrv.Serve(ol)
	defer osrv.Close()

	px := proxy.New(proxy.Config{
		Delta:      *delta,
		BaseFilter: core.Filter{MaxPiggy: *maxPiggy},
		Clock:      clock,
		Resolve:    func(string) (string, error) { return ol.Addr().String(), nil },
		Prefetch:   *prefetch,
		ReportHits: *reportHits,
	})
	defer px.Close()
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	psrv := &httpwire.Server{Handler: px}
	go psrv.Serve(pl)
	defer psrv.Close()

	client := httpwire.NewClient()
	defer client.Close()

	start := time.Now()
	replayed, errors := 0, 0
	for i := range records {
		r := &records[i]
		if r.Method != "" && r.Method != "GET" {
			continue
		}
		now = r.Time
		req := httpwire.NewRequest("GET", "http://replay.local"+r.URL)
		if _, err := client.DoContext(context.Background(), pl.Addr().String(), req); err != nil {
			errors++
			if errors > 10 {
				log.Fatalf("replay: too many errors, last: %v", err)
			}
			continue
		}
		replayed++
		if *prefetch && replayed%20 == 0 {
			px.DrainPrefetchesContext(context.Background(), 4)
		}
	}
	wall := time.Since(start)

	ps := px.Stats()
	os := origin.Stats()
	fmt.Printf("replayed %d requests in %v (%.0f req/s), %d errors\n",
		replayed, wall.Round(time.Millisecond), float64(replayed)/wall.Seconds(), errors)
	fmt.Printf("proxy:  fresh hits %d (%.1f%%), validations %d, misses %d, hit rate %.3f\n",
		ps.FreshHits, 100*float64(ps.FreshHits)/float64(replayed),
		ps.Validations, ps.MissFetches, px.CacheHitRate())
	fmt.Printf("piggy:  %d piggybacks (%d elements), %d refreshes, %d invalidations, %d prefetches (%d useful), %d hits reported\n",
		ps.PiggybacksReceived, ps.PiggybackElements, ps.Refreshes, ps.Invalidations,
		ps.Prefetches, ps.UsefulPrefetches, ps.HitsReported)
	fmt.Printf("origin: %d requests (%.1f%% absorbed by the proxy), %d piggybacks sent (%d bytes)\n",
		os.Requests, 100*(1-float64(os.Requests)/float64(replayed)), os.PiggybacksSent, os.PiggybackBytes)
}

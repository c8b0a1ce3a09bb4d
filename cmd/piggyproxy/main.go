// Command piggyproxy runs the caching piggybacking proxy: clients send it
// absolute-URI or Host-header requests; it caches with a freshness
// interval Δ, attaches Piggy-Filter headers (with per-server RPV lists)
// upstream, and applies P-Volume trailers for coherency, replacement, and
// prefetching.
//
// With no resolver configuration every host is resolved to -origin,
// matching the single-origin testbeds built by piggyserver/volumecenter.
//
// With -peers, the proxy joins a cooperative mesh: the listed fleet
// members (which should include this proxy's own advertised address, or
// pass it separately as -peer-id) partition the URL space over a
// consistent-hash ring, local misses route to the key's ring owner before
// the origin (X-Cache: PEER), and piggybacked volume state re-propagates
// across the fleet.
//
// Usage:
//
//	piggyproxy [-addr :8081] -origin 127.0.0.1:8080 [-cache 64MiB-bytes]
//	           [-delta 900] [-maxpiggy 10] [-prefetch] [-adaptive] [-stats 30s]
//	           [-peers host:port,host:port,...] [-peer-id host:port]
//	           [-disk-dir DIR] [-disk-cap 256MiB-bytes] [-pprof]
//
// Fixed, not flags: the cache's shard count is the smallest power of two
// covering GOMAXPROCS, clamped to [8, 64]; a host's circuit trips after 5
// consecutive upstream failures and admits a probe after 500 ms
// (jittered, doubling per failed probe up to 30 s); an upstream connection
// carries 4 demand exchanges; an upstream exchange times out after 30 s
// and a peer exchange after 5 s; an expired entry is served stale on an
// upstream failure for up to 3600 s past its expiry.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"piggyback/internal/cache"
	"piggyback/internal/cache/tiered"
	"piggyback/internal/core"
	"piggyback/internal/httpwire"
	"piggyback/internal/obs"
	"piggyback/internal/proxy"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8081", "listen address")
	origin := flag.String("origin", "127.0.0.1:8080", "upstream address every host resolves to")
	cacheBytes := flag.Int64("cache", 64<<20, "cache capacity in bytes")
	delta := flag.Int64("delta", 900, "freshness interval Δ in seconds")
	maxPiggy := flag.Int("maxpiggy", 10, "filter maxpiggy attribute")
	prefetch := flag.Bool("prefetch", false, "prefetch piggybacked resources")
	adaptive := flag.Bool("adaptive", false, "adapt Δ per resource from observed change rates")
	statsEvery := flag.Duration("stats", 30*time.Second, "stats reporting interval (0 disables)")
	peers := flag.String("peers", "", "comma-separated fleet member addresses for the cooperative mesh (empty disables)")
	peerID := flag.String("peer-id", "", "this proxy's advertised peer address (default: -addr)")
	diskDir := flag.String("disk-dir", "", "directory for the disk cache tier (empty: RAM only); reopening the same directory restarts warm")
	diskCap := flag.Int64("disk-cap", 256<<20, "disk tier capacity in bytes")
	pprofOn := flag.Bool("pprof", false, "serve runtime profiles on "+httpwire.PprofPathPrefix)
	flag.Parse()
	httpwire.EnablePprof(*pprofOn)

	var peerList []string
	self := ""
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		self = *peerID
		if self == "" {
			self = *addr
		}
	}

	// Exit status is deferred behind the proxy's own deferred Close so a
	// serve failure still flushes the disk tier before the process ends.
	exitCode := 0
	defer func() {
		if exitCode != 0 {
			os.Exit(exitCode)
		}
	}()

	// With -disk-dir, serve from a tiered store: the RAM tier demotes
	// eviction-worthy entries to segment files there, and the proxy's
	// Close (on SIGTERM) snapshots the index so the next run serves warm.
	ram := cache.NewSharded(*cacheBytes, 0, nil)
	var store cache.Store = ram
	if *diskDir != "" {
		ts, err := tiered.New(ram, tiered.Config{
			Dir: *diskDir, DiskBytes: *diskCap,
		})
		if err != nil {
			log.Fatalf("piggyproxy: disk tier: %v", err)
		}
		store = ts
	}

	px := proxy.New(proxy.Config{
		Store:             store,
		Delta:             *delta,
		BaseFilter:        core.Filter{MaxPiggy: *maxPiggy},
		Clock:             func() int64 { return time.Now().Unix() },
		Resolve:           func(host string) (string, error) { return *origin, nil },
		Prefetch:          *prefetch,
		AdaptiveFreshness: *adaptive,
		PeerSelf:          self,
		Peers:             peerList,
	})
	defer px.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if *prefetch {
		go func() {
			for ctx.Err() == nil {
				time.Sleep(500 * time.Millisecond)
				px.DrainPrefetchesContext(ctx, 8)
			}
		}()
	}
	if *statsEvery > 0 {
		go func() {
			for {
				time.Sleep(*statsEvery)
				st := px.Stats()
				line := fmt.Sprintf("piggyproxy: req=%d freshHits=%d validations=%d 304s=%d piggybacks=%d refreshes=%d invalidations=%d prefetches=%d staleServes=%d breakerOpen=%d hitRate=%.2f",
					st.ClientRequests, st.FreshHits, st.Validations, st.NotModified,
					st.PiggybacksReceived, st.Refreshes, st.Invalidations, st.Prefetches,
					st.StaleServes, px.BreakerOpenHosts(),
					px.CacheStats().HitRate())
				if px.PeerRing() != nil {
					line += fmt.Sprintf(" peerFwd=%d peerServes=%d peerFallbacks=%d peerProp=%d/%d",
						st.PeerForwards, st.PeerServes, st.PeerFallbacks,
						st.PeerPropagationsSent, st.PeerPropagationsReceived)
				}
				fmt.Println(line)
			}
		}()
	}

	srv := &httpwire.Server{Handler: px, ErrorLog: log.New(os.Stderr, "piggyproxy: ", 0),
		Obs: obs.NewWireMetrics(px.Obs(), "wire.server")}
	go func() {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
		fmt.Println("\npiggyproxy: shutting down")
		cancel()
		srv.Close()
	}()

	fmt.Printf("piggyproxy: listening on %s, upstream %s, Δ=%ds, cache %d bytes\n",
		*addr, *origin, *delta, *cacheBytes)
	if ring := px.PeerRing(); ring != nil {
		fmt.Printf("piggyproxy: cooperative mesh of %d peers as %s\n", ring.Size(), self)
	}
	// A clean shutdown surfaces as net.ErrClosed from the accept loop;
	// anything else is a real failure. Either way fall through to the
	// deferred px.Close() so the disk tier flushes and snapshots — a
	// log.Fatal here would skip it and cost the next run its warm start.
	if err := srv.ListenAndServe(*addr); err != nil && !errors.Is(err, net.ErrClosed) {
		log.Printf("piggyproxy: serve: %v", err)
		exitCode = 1
	}
}

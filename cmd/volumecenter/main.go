// Command volumecenter runs the transparent volume center: a relay on the
// path between proxies and (non-cooperating) origin servers that builds
// volumes from the traffic it forwards and injects P-Volume trailers on
// the origins' behalf.
//
// Usage:
//
//	volumecenter [-addr :8082] -origin 127.0.0.1:8080 [-level 1] [-maxpiggy 10]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"piggyback/internal/center"
	"piggyback/internal/core"
	"piggyback/internal/httpwire"
	"piggyback/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8082", "listen address")
	origin := flag.String("origin", "127.0.0.1:8080", "default upstream address")
	hostMap := flag.String("map", "", `per-host upstreams: "www.a.com=10.0.0.1:80,www.b.com=10.0.0.2:80"`)
	level := flag.Int("level", 1, "directory-volume prefix level (host-qualified)")
	maxPiggy := flag.Int("maxpiggy", 10, "piggyback element cap")
	statsEvery := flag.Duration("stats", 30*time.Second, "stats reporting interval (0 disables)")
	pprofOn := flag.Bool("pprof", false, "serve runtime profiles on "+httpwire.PprofPathPrefix)
	flag.Parse()
	httpwire.EnablePprof(*pprofOn)

	upstreams := make(map[string]string)
	if *hostMap != "" {
		for _, pair := range strings.Split(*hostMap, ",") {
			host, target, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok || host == "" || target == "" {
				log.Fatalf("volumecenter: bad -map entry %q", pair)
			}
			upstreams[host] = target
		}
	}

	ctr := center.New(center.Config{
		Volumes: core.NewDirVolumes(core.DirConfig{
			Level: *level, MTF: true, ServerMaxPiggy: *maxPiggy, PartitionByType: true,
		}),
		Resolve: func(host string) (string, error) {
			if target, ok := upstreams[host]; ok {
				return target, nil
			}
			return *origin, nil
		},
		Clock: func() int64 { return time.Now().Unix() },
	})
	defer ctr.Close()

	if *statsEvery > 0 {
		go func() {
			for {
				time.Sleep(*statsEvery)
				st := ctr.Stats()
				fmt.Printf("volumecenter: relayed=%d piggybacks=%d elems=%d originPiggybacks=%d errors=%d\n",
					st.Relayed, st.PiggybacksSent, st.PiggybackElems, st.OriginPiggyback, st.UpstreamErrors)
			}
		}()
	}

	srv := &httpwire.Server{Handler: ctr, ErrorLog: log.New(os.Stderr, "volumecenter: ", 0),
		Obs: obs.NewWireMetrics(ctr.Obs(), "wire.server")}
	go func() {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
		fmt.Println("\nvolumecenter: shutting down")
		srv.Close()
	}()

	fmt.Printf("volumecenter: listening on %s, upstream %s, %d-level volumes\n", *addr, *origin, *level)
	if err := srv.ListenAndServe(*addr); err != nil {
		log.Fatal(err)
	}
}

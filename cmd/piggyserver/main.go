// Command piggyserver runs a cooperating piggybacking origin server: it
// serves a synthetic site (or resources described by a manifest) over the
// project's HTTP/1.1 wire layer, maintains directory-based volumes online,
// and answers cooperating proxies with P-Volume trailers.
//
// Usage:
//
//	piggyserver [-addr :8080] [-level 1] [-maxpiggy 10] [-pages 200] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"piggyback/internal/core"
	"piggyback/internal/httpwire"
	"piggyback/internal/obs"
	"piggyback/internal/server"
	"piggyback/internal/tracegen"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	level := flag.Int("level", 1, "directory-volume prefix level")
	maxPiggy := flag.Int("maxpiggy", 10, "server-side piggyback element cap")
	pages := flag.Int("pages", 200, "synthetic site size in pages")
	seed := flag.Int64("seed", 1, "site generation seed")
	pprofOn := flag.Bool("pprof", false, "serve runtime profiles on "+httpwire.PprofPathPrefix)
	flag.Parse()
	httpwire.EnablePprof(*pprofOn)

	site := pagesSite(*pages, *seed)
	resources := site.ResourceTable()
	store := server.NewStore()
	for _, r := range resources {
		store.Put(server.Resource{URL: r.URL, Size: r.Size, LastModified: r.LastModifiedAt(site.Config.StartTime)})
	}
	vols := core.NewDirVolumes(core.DirConfig{
		Level:           *level,
		MTF:             true,
		ServerMaxPiggy:  *maxPiggy,
		PartitionByType: true,
	})
	origin := server.New(store, vols, func() int64 { return time.Now().Unix() })

	srv := &httpwire.Server{Handler: origin, ErrorLog: log.New(os.Stderr, "piggyserver: ", 0),
		Obs: obs.NewWireMetrics(origin.Obs(), "wire.server")}
	go handleSignals(func() { srv.Close() })

	fmt.Printf("piggyserver: %d resources, %d-level volumes, listening on %s\n",
		store.Len(), *level, *addr)
	for i, r := range resources {
		if i >= 3 {
			break
		}
		fmt.Printf("piggyserver: sample resource %s (%d bytes)\n", r.URL, r.Size)
	}
	if err := srv.ListenAndServe(*addr); err != nil {
		log.Fatal(err)
	}
}

func pagesSite(pages int, seed int64) *tracegen.Site {
	_, site := tracegen.GenerateServerLog(tracegen.SiteConfig{
		Name: "piggyserver", Seed: seed, Pages: pages,
		Dirs: 5 + pages/40, MaxDepth: 3, MeanImagesPerPage: 2.5,
		Requests: 1, // the site is what we want, not the log
	})
	return site
}

func handleSignals(stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	fmt.Println("\npiggyserver: shutting down")
	stop()
}

// Volumecenter: transparent piggybacking for servers that know nothing
// about the protocol (§1, §5).
//
// A plain static origin serves two sites. A transparent volume center sits
// on the path between the proxy and the origin: it strips the piggybacking
// headers before forwarding (the origin never sees them), observes the
// relayed traffic to build volumes keyed by host-qualified URL, and
// injects P-Volume trailers into responses for the proxy. The caching
// proxy works unchanged — it cannot tell the center from a cooperating
// server.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"piggyback/internal/center"
	"piggyback/internal/core"
	"piggyback/internal/httpwire"
	"piggyback/internal/proxy"
	"piggyback/internal/server"
)

func main() {
	now := time.Date(1998, 7, 5, 18, 0, 0, 0, time.UTC).Unix()
	clock := func() int64 { return now }

	// --- A plain origin hosting two sites, no volume engine at all. ---
	stores := map[string]*server.Store{
		"www.alpha.example": server.NewStore(),
		"www.beta.example":  server.NewStore(),
	}
	stores["www.alpha.example"].Put(server.Resource{URL: "/docs/guide.html", Size: 5000, LastModified: now - 5000})
	stores["www.alpha.example"].Put(server.Resource{URL: "/docs/figure.gif", Size: 2500, LastModified: now - 5000})
	stores["www.beta.example"].Put(server.Resource{URL: "/docs/other.html", Size: 1000, LastModified: now - 9999})

	plain := httpwire.HandlerFunc(func(ctx context.Context, req *httpwire.Request) *httpwire.Response {
		if req.Header.Has("Piggy-Filter") {
			log.Fatal("piggyback header reached the plain origin — the center must strip it")
		}
		st, ok := stores[req.Header.Get("Host")]
		if !ok {
			return nil
		}
		return server.New(st, nil, clock).ServeWire(ctx, req)
	})
	ol, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	osrv := &httpwire.Server{Handler: plain}
	go osrv.Serve(ol)
	defer osrv.Close()
	fmt.Println("plain origin (two sites) on", ol.Addr())

	// --- Transparent volume center on the path. ---
	ctr := center.New(center.Config{
		Resolve: func(host string) (string, error) { return ol.Addr().String(), nil },
		Clock:   clock,
	})
	defer ctr.Close()
	cl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	csrv := &httpwire.Server{Handler: ctr}
	go csrv.Serve(cl)
	defer csrv.Close()
	fmt.Println("transparent volume center on", cl.Addr())

	// --- Caching proxy pointed at the center. ---
	px := proxy.New(proxy.Config{
		Delta:      600,
		Clock:      clock,
		Resolve:    func(host string) (string, error) { return cl.Addr().String(), nil },
		BaseFilter: core.Filter{MaxPiggy: 10},
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
	get := func(url string) string {
		resp, err := client.DoContext(context.Background(), pl.Addr().String(), httpwire.NewRequest("GET", "http://"+url))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("GET %-36s -> %d X-Cache=%s\n", url, resp.Status, resp.Header.Get("X-Cache"))
		return resp.Header.Get("X-Cache")
	}

	fmt.Println("\n-- browse both sites; the center observes and builds volumes --")
	get("www.alpha.example/docs/guide.html")
	now += 2
	get("www.alpha.example/docs/figure.gif")
	now += 2
	get("www.beta.example/docs/other.html")

	fmt.Println("\n-- 10 minutes later: one request to alpha refreshes its sibling --")
	now += 600
	get("www.alpha.example/docs/guide.html")
	sibling := get("www.alpha.example/docs/figure.gif") // refreshed by the piggyback

	ps := px.Stats()
	cs := ctr.Obs().Snapshot()
	injected := cs.Counter("center.piggybacks_sent")
	fmt.Printf("\nproxy: %d piggybacks received, %d refreshes, %d fresh hits\n",
		ps.PiggybacksReceived, ps.Refreshes, ps.FreshHits)
	fmt.Printf("center: %d relayed, %d piggybacks injected on the origin's behalf\n",
		cs.Counter("center.relayed"), injected)
	if injected == 0 || sibling != "HIT" {
		log.Fatalf("center injected %d piggybacks and the sibling answered %s; want at least one and HIT",
			injected, sibling)
	}
}

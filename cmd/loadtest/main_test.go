package main

import (
	"fmt"
	"testing"
	"time"

	"piggyback/internal/core"
	"piggyback/internal/httpwire"
	"piggyback/internal/server"
)

// testFleet is one proxy in front of an origin holding nRes resources, and
// the proxy-form URLs of a workload cycling over them.
func testFleet(t *testing.T, nRes int) (*fleet, []string) {
	t.Helper()
	st := server.NewStore()
	var urls []string
	for i := 0; i < nRes; i++ {
		path := fmt.Sprintf("/a/r%03d.html", i)
		st.Put(server.Resource{URL: path, Size: 1500, LastModified: time.Now().Unix() - 86400})
		urls = append(urls, "http://"+host+path)
	}
	origin := server.New(st, core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true}), clock)
	ol := listen()
	osrv := &httpwire.Server{Handler: origin}
	go osrv.Serve(ol)
	t.Cleanup(func() { osrv.Close() })
	f := launch(load{}, ol.Addr().String(), []string{""})
	t.Cleanup(func() { f.close() })
	return f, urls
}

// TestSendClosedLoop: every request is sent once, answered, and seen by the
// proxy's counters, which the driver reads in-process.
func TestSendClosedLoop(t *testing.T) {
	const n = 300
	f, urls := testFleet(t, 20)
	before := counters(f.pxs)
	cs := send(load{workers: 4}, f.addrs, urls, n)
	d := counters(f.pxs).Sub(before)
	if cs.done.Load() != n || cs.errors.Load() != 0 {
		t.Fatalf("done %d, errors %d; want %d, 0", cs.done.Load(), cs.errors.Load(), n)
	}
	if got := d.Counter("proxy.client_requests"); got != n {
		t.Errorf("proxy.client_requests delta = %d, want %d", got, n)
	}
	// 20 resources cycled through a fresh cache: about all but the first
	// pass hit (a request that meets its URL's first fetch in flight shares
	// it instead).
	if got := d.Counter("proxy.fresh_hits"); got < n-2*20 {
		t.Errorf("proxy.fresh_hits delta = %d, want about %d", got, n-20)
	}
}

// TestSendOpenLoop: paced arrivals are answered or shed, never both, and
// the pacing holds the run to about n/rate.
func TestSendOpenLoop(t *testing.T) {
	const n, rate = 100, 2000
	f, urls := testFleet(t, 5)
	start := time.Now()
	cs := send(load{workers: 4, rate: rate}, f.addrs, urls, n)
	if elapsed := time.Since(start); elapsed < n*time.Second/rate*9/10 {
		t.Errorf("%d arrivals at %d/s took %v: not paced", n, rate, elapsed)
	}
	served := int64(f.pxs[0].Stats().ClientRequests)
	if cs.done.Load() == 0 || cs.errors.Load() != 0 || cs.done.Load() != served || served > n {
		t.Errorf("done %d, errors %d, proxy saw %d of %d arrivals", cs.done.Load(), cs.errors.Load(), served, n)
	}
}

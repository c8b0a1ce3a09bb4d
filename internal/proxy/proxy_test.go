package proxy

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"testing"
	"time"

	"piggyback/internal/cache"
	"piggyback/internal/core"
	"piggyback/internal/httpwire"
	"piggyback/internal/obs"
	"piggyback/internal/server"
)

// testbed wires origin -> proxy over loopback with a controllable clock.
type testbed struct {
	origin  *server.Server
	store   *server.Store
	proxy   *Proxy
	client  *httpwire.Client
	prxAddr string
	now     int64
}

func newTestbed(t *testing.T, cfg Config) *testbed {
	t.Helper()
	tb := &testbed{now: 10000}
	clock := func() int64 { return tb.now }

	tb.store = server.NewStore()
	tb.store.Put(server.Resource{URL: "/a/x.html", Size: 100, LastModified: 1000})
	tb.store.Put(server.Resource{URL: "/a/y.gif", Size: 50, LastModified: 1500})
	tb.store.Put(server.Resource{URL: "/a/big.pdf", Size: 5000, LastModified: 1200})
	vols := core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true})
	tb.origin = server.New(tb.store, vols, clock)

	ol, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	osrv := &httpwire.Server{Handler: tb.origin}
	go osrv.Serve(ol)
	t.Cleanup(func() { osrv.Close() })
	originAddr := ol.Addr().String()

	cfg.Clock = clock
	cfg.Resolve = func(host string) (string, error) { return originAddr, nil }
	tb.proxy = New(cfg)
	t.Cleanup(tb.proxy.Close)

	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	psrv := &httpwire.Server{Handler: tb.proxy}
	go psrv.Serve(pl)
	t.Cleanup(func() { psrv.Close() })
	tb.prxAddr = pl.Addr().String()

	tb.client = httpwire.NewClient()
	t.Cleanup(tb.client.Close)
	return tb
}

// get issues a client request through the proxy (absolute-URI form).
func (tb *testbed) get(t *testing.T, url string) *httpwire.Response {
	t.Helper()
	resp, err := tb.client.DoContext(context.Background(), tb.prxAddr, httpwire.NewRequest("GET", "http://"+url))
	if err != nil {
		t.Fatalf("client request for %s: %v", url, err)
	}
	return resp
}

func TestProxyMissThenFreshHit(t *testing.T) {
	tb := newTestbed(t, Config{Delta: 600})
	r1 := tb.get(t, "www.site.com/a/x.html")
	if r1.Status != 200 || r1.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("first: %d %s", r1.Status, r1.Header.Get("X-Cache"))
	}
	tb.now += 10
	r2 := tb.get(t, "www.site.com/a/x.html")
	if r2.Status != 200 || r2.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("second: %d %s", r2.Status, r2.Header.Get("X-Cache"))
	}
	if string(r1.Body) != string(r2.Body) {
		t.Error("cached body differs")
	}
	st := tb.proxy.Stats()
	if st.MissFetches != 1 || st.FreshHits != 1 {
		t.Errorf("stats = %+v", st)
	}
	// The origin saw exactly one request.
	if tb.origin.Stats().Requests != 1 {
		t.Errorf("origin requests = %d", tb.origin.Stats().Requests)
	}
}

func TestProxyValidatesStaleEntry(t *testing.T) {
	tb := newTestbed(t, Config{Delta: 600})
	tb.get(t, "www.site.com/a/x.html")
	tb.now += 700 // past Δ: stale
	r := tb.get(t, "www.site.com/a/x.html")
	if r.Status != 200 {
		t.Fatalf("status = %d", r.Status)
	}
	st := tb.proxy.Stats()
	if st.Validations != 1 || st.NotModified != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Freshened: immediate re-request is a fresh hit.
	tb.now += 10
	tb.get(t, "www.site.com/a/x.html")
	if tb.proxy.Stats().FreshHits != 1 {
		t.Errorf("freshened entry not hit: %+v", tb.proxy.Stats())
	}
}

func TestProxyFetchesModifiedVersion(t *testing.T) {
	tb := newTestbed(t, Config{Delta: 600})
	tb.get(t, "www.site.com/a/x.html")
	tb.store.Modify("/a/x.html", 2000, 120)
	tb.now += 700
	r := tb.get(t, "www.site.com/a/x.html")
	if r.Status != 200 {
		t.Fatalf("status = %d", r.Status)
	}
	if lm, _ := r.LastModified(); lm != 2000 {
		t.Errorf("Last-Modified = %d, want 2000", lm)
	}
	if len(r.Body) != 120 {
		t.Errorf("body = %d bytes, want 120", len(r.Body))
	}
}

func TestProxyPiggybackRefreshesCachedEntry(t *testing.T) {
	tb := newTestbed(t, Config{Delta: 600})
	tb.get(t, "www.site.com/a/y.gif")  // cache y
	tb.now += 590                      // y nearly stale
	tb.get(t, "www.site.com/a/x.html") // piggyback refreshes y
	st := tb.proxy.Stats()
	if st.PiggybacksReceived == 0 {
		t.Fatal("no piggyback received")
	}
	if st.Refreshes == 0 {
		t.Fatalf("piggyback did not freshen cached entry: %+v", st)
	}
	// y stays fresh past its original Δ without contacting the origin.
	tb.now += 100
	origin := tb.origin.Stats().Requests
	r := tb.get(t, "www.site.com/a/y.gif")
	if r.Header.Get("X-Cache") != "HIT" {
		t.Error("refreshed entry was not served from cache")
	}
	if tb.origin.Stats().Requests != origin {
		t.Error("refreshed entry still validated at origin")
	}
	if tb.proxy.CacheHitRate() <= 0 {
		t.Error("cache hit rate is 0 after a hit")
	}
}

func TestProxyPiggybackInvalidatesStaleEntry(t *testing.T) {
	tb := newTestbed(t, Config{Delta: 600})
	tb.get(t, "www.site.com/a/y.gif")
	tb.store.Modify("/a/y.gif", 5000, 0) // y changes at the origin
	tb.now += 10
	tb.get(t, "www.site.com/a/x.html") // piggyback reveals the change
	st := tb.proxy.Stats()
	if st.Invalidations != 1 {
		t.Fatalf("Invalidations = %d: %+v", st.Invalidations, st)
	}
	// Next access must fetch the new version (miss, not hit).
	tb.now += 10
	r := tb.get(t, "www.site.com/a/y.gif")
	if r.Header.Get("X-Cache") != "MISS" {
		t.Error("invalidated entry served from cache")
	}
	if lm, _ := r.LastModified(); lm != 5000 {
		t.Errorf("Last-Modified = %d, want 5000", lm)
	}
}

func TestProxyRPVSuppressesSecondPiggyback(t *testing.T) {
	tb := newTestbed(t, Config{Delta: 600, RPVTimeout: 300})
	tb.get(t, "www.site.com/a/x.html")
	tb.now += 5
	tb.get(t, "www.site.com/a/y.gif") // same volume: RPV suppresses
	if got := tb.origin.Stats().PiggybacksSent; got != 1 {
		t.Errorf("origin sent %d piggybacks, want 1 (RPV)", got)
	}
	tb.now += 400 // RPV expired
	tb.get(t, "www.site.com/a/big.pdf")
	if got := tb.origin.Stats().PiggybacksSent; got != 2 {
		t.Errorf("origin sent %d piggybacks, want 2 after RPV expiry", got)
	}
}

func TestProxyPrefetchQueueAndDrain(t *testing.T) {
	tb := newTestbed(t, Config{Delta: 600, Prefetch: true})
	// Seed volume with two resources via direct origin traffic (another
	// proxy's activity).
	seed := httpwire.NewClient()
	defer seed.Close()
	addr, _ := tb.proxy.cfg.Resolve("www.site.com")
	for _, p := range []string{"/a/y.gif", "/a/big.pdf"} {
		if _, err := seed.DoContext(context.Background(), addr, httpwire.NewRequest("GET", p)); err != nil {
			t.Fatal(err)
		}
	}
	tb.get(t, "www.site.com/a/x.html")
	if tb.proxy.Queue().Len() != 2 {
		t.Fatalf("queue = %d, want 2", tb.proxy.Queue().Len())
	}
	n := tb.proxy.DrainPrefetchesContext(context.Background(), 10)
	if n != 2 {
		t.Fatalf("prefetched %d, want 2", n)
	}
	// Both now served from cache.
	tb.now += 10
	if r := tb.get(t, "www.site.com/a/y.gif"); r.Header.Get("X-Cache") != "HIT" {
		t.Error("prefetched resource missed")
	}
	st := tb.proxy.Stats()
	if st.Prefetches != 2 || st.UsefulPrefetches != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestProxyAdaptiveFreshness(t *testing.T) {
	tb := newTestbed(t, Config{Delta: 600, AdaptiveFreshness: true})
	// Modifications ~100s apart teach the estimator a short change
	// interval => Δ well below the 600s default (clamped at Δ/10).
	tb.store.Modify("/a/x.html", tb.now-100, 0)
	tb.get(t, "www.site.com/a/x.html")
	tb.store.Modify("/a/x.html", tb.now, 0)
	tb.now += 700
	tb.get(t, "www.site.com/a/x.html")
	tb.store.Modify("/a/x.html", tb.now-600, 0) // 600s after previous mod
	tb.get(t, "www.site.com/a/x.html")

	d := tb.proxy.fresh.Delta("www.site.com/a/x.html")
	if d >= 600 {
		t.Errorf("adaptive Δ = %d, want < default for fast-changing resource", d)
	}
	if d < 60 {
		t.Errorf("adaptive Δ = %d, below Δ/10", d)
	}
}

func TestProxyRejectsNonGET(t *testing.T) {
	tb := newTestbed(t, Config{})
	req := httpwire.NewRequest("POST", "http://www.site.com/a/x.html")
	resp, err := tb.client.DoContext(context.Background(), tb.prxAddr, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 501 {
		t.Errorf("status = %d, want 501", resp.Status)
	}
}

func TestProxyHostHeaderForm(t *testing.T) {
	tb := newTestbed(t, Config{})
	req := httpwire.NewRequest("GET", "/a/x.html")
	req.Header.Set("Host", "www.site.com")
	resp, err := tb.client.DoContext(context.Background(), tb.prxAddr, req)
	if err != nil || resp.Status != 200 {
		t.Fatalf("host-form request: %v %d", err, resp.Status)
	}
	// Missing host entirely: 400.
	req2 := httpwire.NewRequest("GET", "/a/x.html")
	resp2, err := tb.client.DoContext(context.Background(), tb.prxAddr, req2)
	if err != nil || resp2.Status != 400 {
		t.Fatalf("hostless request: %v %d", err, resp2.Status)
	}
}

func TestProxyAnswersStatsPathItself(t *testing.T) {
	// The origin-form stats path has no host to forward to: the proxy
	// answers with its own telemetry.
	tb := newTestbed(t, Config{})
	tb.get(t, "www.site.com/a/x.html")
	resp, err := tb.client.DoContext(context.Background(), tb.prxAddr, httpwire.NewRequest("GET", obs.StatsPath))
	if err != nil || resp.Status != 200 {
		t.Fatalf("stats request: %v %v", err, resp)
	}
	var s obs.Snapshot
	if err := json.Unmarshal(resp.Body, &s); err != nil {
		t.Fatal(err)
	}
	if got := s.Counter("proxy.client_requests"); got != 1 {
		t.Errorf("proxy.client_requests = %d, want 1: %v", got, s.Counters)
	}
	if h, ok := s.Histograms["wire.upstream.latency_us"]; !ok || h.Count != 1 {
		t.Errorf("upstream wire histogram = %+v, %v; want the one exchange", h, ok)
	}
	if got := tb.origin.Stats().Requests; got != 1 {
		t.Errorf("origin saw %d requests, want 1: the stats request was forwarded", got)
	}
}

func TestProxyUpstreamErrorIs502(t *testing.T) {
	clock := func() int64 { return 1 }
	p := New(Config{
		Clock:   clock,
		Resolve: func(host string) (string, error) { return "127.0.0.1:1", nil },
	})
	defer p.Close()
	req := httpwire.NewRequest("GET", "http://dead.example.com/x")
	resp := p.ServeWire(context.Background(), req)
	if resp.Status != 502 {
		t.Errorf("status = %d, want 502", resp.Status)
	}
	if p.Stats().UpstreamErrors != 1 {
		t.Errorf("stats = %+v", p.Stats())
	}
}

func TestProxyEvictionUnderPressure(t *testing.T) {
	tb := newTestbed(t, Config{Delta: 600, Store: cache.NewSharded(150, 0, cache.PolicyFactory(cache.LRU{}))})
	tb.get(t, "www.site.com/a/x.html") // 100 bytes
	tb.now++
	tb.get(t, "www.site.com/a/y.gif") // 50 bytes: fits alongside
	tb.now++
	tb.get(t, "www.site.com/a/big.pdf") // 5000: uncachable at this size
	tb.now++
	r := tb.get(t, "www.site.com/a/x.html")
	if r.Header.Get("X-Cache") != "HIT" {
		t.Error("small entries should survive oversize fetch")
	}
}

func TestProxyServesPipelinedClients(t *testing.T) {
	// A client pipelines a page and its embedded resources through the
	// proxy on one connection: responses come back in order, correctly
	// framed, mixing hits and misses.
	tb := newTestbed(t, Config{Delta: 600})
	tb.get(t, "www.site.com/a/y.gif") // warm one entry

	conn, err := net.Dial("tcp", tb.prxAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// All three requests in one write, before any response is read.
	var pipelined bytes.Buffer
	bw := bufio.NewWriter(&pipelined)
	for _, path := range []string{"/a/x.html", "/a/y.gif", "/a/big.pdf"} {
		if err := httpwire.WriteRequest(bw, httpwire.NewRequest("GET", "http://www.site.com"+path)); err != nil {
			t.Fatal(err)
		}
	}
	bw.Flush()
	if _, err := conn.Write(pipelined.Bytes()); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	wantLen := []int{100, 50, 5000}
	wantCache := []string{"MISS", "HIT", "MISS"}
	for i := range wantLen {
		r, err := httpwire.ReadResponse(br, false)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if r.Status != 200 || len(r.Body) != wantLen[i] {
			t.Errorf("response %d: %d, %d bytes (want %d)", i, r.Status, len(r.Body), wantLen[i])
		}
		if got := r.Header.Get("X-Cache"); got != wantCache[i] {
			t.Errorf("response %d: X-Cache=%s, want %s", i, got, wantCache[i])
		}
	}
}

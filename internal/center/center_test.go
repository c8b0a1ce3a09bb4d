package center

import (
	"context"
	"net"
	"strings"
	"testing"

	"piggyback/internal/core"
	"piggyback/internal/httpwire"
	"piggyback/internal/proxy"
	"piggyback/internal/server"
)

// plainOrigin is a NON-cooperating origin: it serves resources but knows
// nothing about volumes or piggybacking.
func plainOrigin(t *testing.T, clock func() int64, hosts map[string]*server.Store) string {
	t.Helper()
	// One listener serving all hosts, dispatching on the Host header.
	h := httpwire.HandlerFunc(func(_ context.Context, req *httpwire.Request) *httpwire.Response {
		if req.Header.Has(httpwire.FieldPiggyFilter) || req.Header.Has(httpwire.FieldPiggyHits) ||
			req.Header.Has(httpwire.FieldPiggyValidate) || req.Header.Has(httpwire.FieldPiggySince) {
			t.Errorf("piggyback header leaked to origin")
		}
		st, ok := hosts[req.Header.Get("Host")]
		if !ok {
			return httpwire.NewResponse(404)
		}
		// A plain static server: no volume engine at all.
		return server.New(st, nil, clock).ServeWire(context.Background(), req)
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &httpwire.Server{Handler: h}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String()
}

func newCenterBed(t *testing.T) (ctr *Center, ctrAddr string, now *int64, stores map[string]*server.Store) {
	t.Helper()
	n := int64(10000)
	now = &n
	clock := func() int64 { return *now }

	stores = map[string]*server.Store{
		"www.one.com": server.NewStore(),
		"www.two.com": server.NewStore(),
	}
	stores["www.one.com"].Put(server.Resource{URL: "/a/x.html", Size: 100, LastModified: 1000})
	stores["www.one.com"].Put(server.Resource{URL: "/a/y.gif", Size: 50, LastModified: 1500})
	stores["www.two.com"].Put(server.Resource{URL: "/a/z.html", Size: 70, LastModified: 800})
	originAddr := plainOrigin(t, clock, stores)

	ctr = New(Config{
		Resolve: func(host string) (string, error) { return originAddr, nil },
		Clock:   clock,
	})
	t.Cleanup(ctr.Close)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &httpwire.Server{Handler: ctr}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return ctr, l.Addr().String(), now, stores
}

func doVia(t *testing.T, c *httpwire.Client, addr, host, path string, f *core.Filter) *httpwire.Response {
	t.Helper()
	req := httpwire.NewRequest("GET", path)
	req.Header.Set("Host", host)
	if f != nil {
		httpwire.SetFilter(req, *f)
	}
	resp, err := c.DoContext(context.Background(), addr, req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestCenterRelaysTransparently(t *testing.T) {
	_, addr, _, _ := newCenterBed(t)
	c := httpwire.NewClient()
	defer c.Close()
	resp := doVia(t, c, addr, "www.one.com", "/a/x.html", nil)
	if resp.Status != 200 || len(resp.Body) != 100 {
		t.Fatalf("relay: %d, %d bytes", resp.Status, len(resp.Body))
	}
	if _, ok := httpwire.ExtractPiggyback(resp); ok {
		t.Error("piggyback injected for a filterless client")
	}
}

func TestCenterInjectsPiggybackOnBehalfOfOrigin(t *testing.T) {
	ctr, addr, _, _ := newCenterBed(t)
	c := httpwire.NewClient()
	defer c.Close()
	f := &core.Filter{MaxPiggy: 10}
	// Warm the center's volumes.
	doVia(t, c, addr, "www.one.com", "/a/y.gif", f)
	resp := doVia(t, c, addr, "www.one.com", "/a/x.html", f)
	m, ok := httpwire.ExtractPiggyback(resp)
	if !ok {
		t.Fatal("center did not inject a piggyback")
	}
	found := false
	for _, e := range m.Elements {
		if !strings.HasPrefix(e.URL, "www.one.com/") {
			t.Errorf("center element not host-qualified: %q", e.URL)
		}
		if e.URL == "www.one.com/a/y.gif" {
			found = true
			if e.LastModified != 1500 || e.Size != 50 {
				t.Errorf("element attributes: %+v", e)
			}
		}
	}
	if !found {
		t.Errorf("expected www.one.com/a/y.gif, got %+v", m.Elements)
	}
	if snap := ctr.Obs().Snapshot(); snap.Counter("center.piggybacks_sent") != 1 || snap.Counter("center.relayed") != 2 {
		t.Errorf("counters = %v", snap.Counters)
	}
}

func TestCenterKeepsSitesInSeparateVolumes(t *testing.T) {
	_, addr, _, _ := newCenterBed(t)
	c := httpwire.NewClient()
	defer c.Close()
	f := &core.Filter{MaxPiggy: 10}
	doVia(t, c, addr, "www.two.com", "/a/z.html", f)
	resp := doVia(t, c, addr, "www.one.com", "/a/x.html", f)
	if m, ok := httpwire.ExtractPiggyback(resp); ok {
		for _, e := range m.Elements {
			if strings.HasPrefix(e.URL, "www.two.com/") {
				t.Errorf("cross-site element in one.com volume: %q", e.URL)
			}
		}
	}
}

func TestCenterHonorsRPVFilter(t *testing.T) {
	ctr, addr, _, _ := newCenterBed(t)
	c := httpwire.NewClient()
	defer c.Close()
	f := &core.Filter{MaxPiggy: 10}
	doVia(t, c, addr, "www.one.com", "/a/y.gif", f)
	resp := doVia(t, c, addr, "www.one.com", "/a/x.html", f)
	m, ok := httpwire.ExtractPiggyback(resp)
	if !ok {
		t.Fatal("no piggyback")
	}
	f2 := &core.Filter{MaxPiggy: 10, RPV: []core.VolumeID{m.Volume}}
	resp2 := doVia(t, c, addr, "www.one.com", "/a/x.html", f2)
	if _, ok := httpwire.ExtractPiggyback(resp2); ok {
		t.Error("RPV-listed volume piggybacked anyway")
	}
	if n := ctr.Obs().Snapshot().Counter("center.piggybacks_sent"); n != 1 {
		t.Errorf("center.piggybacks_sent = %d, want 1", n)
	}
}

func TestCenterPassesThroughConditionalRequests(t *testing.T) {
	_, addr, _, _ := newCenterBed(t)
	c := httpwire.NewClient()
	defer c.Close()
	req := httpwire.NewRequest("GET", "/a/x.html")
	req.Header.Set("Host", "www.one.com")
	req.Header.Set("If-Modified-Since", httpwire.FormatHTTPDate(1000))
	resp, err := c.DoContext(context.Background(), addr, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 304 {
		t.Errorf("status = %d, want 304 through the center", resp.Status)
	}
}

func TestCenterUpstreamError(t *testing.T) {
	clock := func() int64 { return 1 }
	ctr := New(Config{
		Resolve: func(host string) (string, error) { return "127.0.0.1:1", nil },
		Clock:   clock,
	})
	defer ctr.Close()
	req := httpwire.NewRequest("GET", "/x")
	req.Header.Set("Host", "dead.example.com")
	if resp := ctr.ServeWire(context.Background(), req); resp.Status != 502 {
		t.Errorf("status = %d, want 502", resp.Status)
	}
}

func TestProxyThroughCenterEndToEnd(t *testing.T) {
	// The full §1 deployment: client -> caching proxy -> volume center ->
	// plain origin. The proxy's piggyback machinery works unchanged even
	// though the origin knows nothing about the protocol.
	_, ctrAddr, nowp, _ := newCenterBed(t)

	px := proxy.New(proxy.Config{
		Delta:   600,
		Clock:   func() int64 { return *nowp },
		Resolve: func(host string) (string, error) { return ctrAddr, nil },
	})
	defer px.Close()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	psrv := &httpwire.Server{Handler: px}
	go psrv.Serve(l)
	defer psrv.Close()

	c := httpwire.NewClient()
	defer c.Close()
	get := func(url string) *httpwire.Response {
		resp, err := c.DoContext(context.Background(), l.Addr().String(), httpwire.NewRequest("GET", "http://"+url))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	get("www.one.com/a/y.gif")
	*nowp += 5
	get("www.one.com/a/x.html")
	st := px.Stats()
	if st.PiggybacksReceived == 0 {
		t.Fatal("proxy received no piggyback through the center")
	}
	if st.Refreshes == 0 {
		t.Errorf("piggyback did not refresh the cached entry: %+v", st)
	}
}

// TestCenterConsumesPiggyHits: the center strips Piggy-Hits and
// Piggy-Validate (plainOrigin fails the test if one leaks), answers
// nothing — it knows only the versions it last relayed — and counts each
// report against the element it holds without touching that element's size
// or Last-Modified; a reported URL it never relayed is not inserted.
func TestCenterConsumesPiggyHits(t *testing.T) {
	ctr, addr, now, _ := newCenterBed(t)
	c := httpwire.NewClient()
	defer c.Close()
	doVia(t, c, addr, "www.one.com", "/a/y.gif", nil)
	*now += 5
	req := httpwire.NewRequest("GET", "/a/x.html")
	req.Header.Set("Host", "www.one.com")
	httpwire.SetFilter(req, core.Filter{MaxPiggy: 10})
	httpwire.SetPaths(req, httpwire.FieldPiggyHits, []string{"/a/y.gif", "/a/y.gif", "/a/new.html"})
	httpwire.SetPaths(req, httpwire.FieldPiggyValidate, []string{"/a/y.gif", "/a/new.html"})
	resp, err := c.DoContext(context.Background(), addr, req)
	if err != nil || resp.Status != 200 {
		t.Fatalf("relay: %v %d", err, resp.Status)
	}
	if resp.Trailer.Has(httpwire.FieldPValid) {
		t.Errorf("center answered a hit report or a validation list: %q", resp.Trailer.Get(httpwire.FieldPValid))
	}
	if got := ctr.Obs().Snapshot().Counter("center.hit_reports"); got != 3 {
		t.Errorf("center.hit_reports = %d, want 3", got)
	}
	// y.gif: one relayed access + two reported ones pass minaccess=3,
	// still at the version the center relayed; new.html is absent.
	m, ok := ctr.Volumes().Piggyback("www.one.com/a/x.html", *now, core.Filter{MinAccess: 3})
	if !ok || len(m.Elements) != 1 {
		t.Fatalf("piggyback %+v (ok %v), want www.one.com/a/y.gif alone", m.Elements, ok)
	}
	if e := m.Elements[0]; e != (core.Element{URL: "www.one.com/a/y.gif", Size: 50, LastModified: 1500}) {
		t.Errorf("element %+v, want www.one.com/a/y.gif at size 50, Last-Modified 1500", e)
	}
	m, _ = ctr.Volumes().Piggyback("www.one.com/a/x.html", *now, core.Filter{})
	for _, e := range m.Elements {
		if e.URL == "www.one.com/a/new.html" {
			t.Errorf("a reported URL the center never relayed was inserted: %+v", e)
		}
	}
}

// TestCenterHitReportNeverFreshensStaleCopy: a proxy behind the center
// reports a hit on a copy whose origin version has since changed, and the
// center has relayed the new version to someone else. The piggyback that
// follows must name the new version — a report used to overwrite the
// center's element with size 0 and Last-Modified 0, which a proxy applied
// as a refresh of whatever it held.
func TestCenterHitReportNeverFreshensStaleCopy(t *testing.T) {
	_, ctrAddr, nowp, stores := newCenterBed(t)
	px := proxy.New(proxy.Config{
		Delta:      600,
		RPVTimeout: 10,
		Clock:      func() int64 { return *nowp },
		Resolve:    func(string) (string, error) { return ctrAddr, nil },
	})
	defer px.Close()
	get := func(url string) *httpwire.Response {
		return px.ServeWire(context.Background(), httpwire.NewRequest("GET", "http://"+url))
	}

	get("www.one.com/a/x.html") // miss, Last-Modified 1000
	*nowp += 1
	if r := get("www.one.com/a/x.html"); r.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("X-Cache %q, want HIT", r.Header.Get("X-Cache"))
	}
	*nowp += 1
	stores["www.one.com"].Modify("/a/x.html", 5000, 0)
	c := httpwire.NewClient()
	defer c.Close()
	doVia(t, c, ctrAddr, "www.one.com", "/a/x.html", nil) // another client's request

	*nowp += 20
	get("www.one.com/a/y.gif") // carries the report; its piggyback names x.html
	r := get("www.one.com/a/x.html")
	if lm, _ := r.LastModified(); r.Header.Get("X-Cache") != "MISS" || lm != 5000 {
		t.Errorf("X-Cache %q, Last-Modified %d, want MISS and 5000: the stale copy was served", r.Header.Get("X-Cache"), lm)
	}
}

// TestCenterForwardsNoChangeList: the center deletes a proxy's Piggy-Since
// before forwarding, and relays no P-Changes trailer, even from an origin
// that attaches one unasked: the center keeps no change log, and a token
// it relayed would not be the one its proxies hold.
func TestCenterForwardsNoChangeList(t *testing.T) {
	st := server.NewStore()
	st.Put(server.Resource{URL: "/a/x.html", Size: 100, LastModified: 1000})
	now := int64(10_000)
	origin := server.New(st, nil, func() int64 { return now })
	var since []string
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &httpwire.Server{Handler: httpwire.HandlerFunc(func(ctx context.Context, req *httpwire.Request) *httpwire.Response {
		since = append(since, req.Header.Get(httpwire.FieldPiggySince))
		resp := origin.ServeWire(ctx, req)
		httpwire.AttachChanges(resp, httpwire.ChangesValue("e.7", []core.Element{{URL: "/a/y.gif", Size: 50, LastModified: 5000}}, true))
		return resp
	})}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	ctr := New(Config{Resolve: func(string) (string, error) { return l.Addr().String(), nil }, Clock: func() int64 { return now }})
	t.Cleanup(ctr.Close)
	cl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	csrv := &httpwire.Server{Handler: ctr}
	go csrv.Serve(cl)
	t.Cleanup(func() { csrv.Close() })

	c := httpwire.NewClient()
	defer c.Close()
	req := httpwire.NewRequest("GET", "/a/x.html")
	req.Header.Set("Host", "www.one.com")
	httpwire.SetFilter(req, core.Filter{MaxPiggy: 10})
	req.Header.Set(httpwire.FieldPiggySince, httpwire.NoToken)
	resp, err := c.DoContext(context.Background(), cl.Addr().String(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Fatalf("status %d", resp.Status)
	}
	if len(since) != 1 || since[0] != "" {
		t.Errorf("origin saw Piggy-Since %q, want it deleted", since)
	}
	if v := resp.Trailer.Get(httpwire.FieldPChanges); v != "" {
		t.Errorf("center relayed P-Changes %q", v)
	}
	if _, _, _, _, ok := httpwire.ExtractChanges(resp); ok {
		t.Error("the center's answer carries a change list")
	}
}

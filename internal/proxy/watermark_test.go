package proxy

import (
	"fmt"
	"testing"

	"piggyback/internal/cache"
	"piggyback/internal/cache/tiered"
	"piggyback/internal/core"
	"piggyback/internal/httpwire"
)

// TestWatermarkServesCoveredCopyPastExpiry: a copy admitted on an unbroken
// chain is served as a fresh hit past its own expiry while its host's last
// complete list answered a request sent within Δ, and validated once that
// is older than Δ. A copy whose exchange carried the break is not covered.
func TestWatermarkServesCoveredCopyPastExpiry(t *testing.T) {
	cb := newChangeBed(t, Config{Delta: 600}, "/a/page.html", "/a/o1.html", "/a/o2.html")
	cb.get("/a/page.html") // the break: admitted uncovered
	cb.get("/a/o1.html")   // nothing new: covered, watermark 10_000
	cb.now.Store(10_590)
	cb.get("/a/o2.html") // watermark 10_590
	cb.now.Store(10_700)
	for _, tc := range []struct{ path, want string }{{"/a/o1.html", "HIT"}, {"/a/page.html", "MISS"}} {
		if r := cb.get(tc.path); r.Header.Get("X-Cache") != tc.want {
			t.Errorf("%s at 10_700: X-Cache %q, want %s", tc.path, r.Header.Get("X-Cache"), tc.want)
		}
	}
	// The hit on o1 is reported on page.html's validation, whose answer
	// freshens o1 to 11_300 and whose list moves the watermark to 10_700:
	// o1 is fresh until 11_300 either way, then validated.
	cb.now.Store(11_299)
	if r := cb.get("/a/o1.html"); r.Header.Get("X-Cache") != "HIT" {
		t.Errorf("o1 at 11_299: X-Cache %q, want HIT", r.Header.Get("X-Cache"))
	}
	before := cb.proxy.Stats()
	cb.now.Store(11_300)
	if r := cb.get("/a/o1.html"); r.Header.Get("X-Cache") != "MISS" || statsMoved(before, cb.proxy.Stats()).NotModified != 1 {
		t.Errorf("o1 at 11_300: X-Cache %q, want a validation answered 304", r.Header.Get("X-Cache"))
	}
	if n := counters(t, cb.proxy, "proxy.watermark_hits")["proxy.watermark_hits"]; n != 1 {
		t.Errorf("proxy.watermark_hits = %d, want 1", n)
	}
}

// TestWatermarkFlightRule: a body admitted after a change list naming a
// newer version of its resource, or a break, was applied to its host while
// its exchange was in flight is not covered — the list found no copy to
// take the change — and one admitted while lists naming other resources,
// its own version, or none, were applied is.
func TestWatermarkFlightRule(t *testing.T) {
	p, resp := offlineProxy(t)
	for _, tc := range []struct {
		name   string
		during func(path string)
		want   bool
	}{
		{"nothing applied", func(string) {}, true},
		{"an empty list", func(string) { p.hosts.noteSince(changeHost, "e.2", 10_000) }, true},
		{"a list naming others", func(string) { p.hosts.chain(changeHost, []core.Element{{URL: "/a/other"}}, false) }, true},
		{"a list naming its version", func(path string) {
			p.hosts.chain(changeHost, []core.Element{{URL: path, LastModified: 1000}}, false)
		}, true},
		{"a list naming a newer version", func(path string) {
			p.hosts.chain(changeHost, []core.Element{{URL: "/a/other"}, {URL: path, LastModified: 1001}}, false)
			p.hosts.chain(changeHost, []core.Element{{URL: "/a/other"}}, false)
		}, false},
		{"a break", func(string) { p.hosts.chain(changeHost, nil, true) }, false},
	} {
		p.hosts.chain(changeHost, nil, true)
		p.hosts.noteSince(changeHost, "e.1", 10_000)
		path := "/a/" + tc.name
		st := upstreamState{key: changeHost + path, host: changeHost, path: path}
		link := p.hosts.take(changeHost, 10_000).link
		tc.during(path)
		p.admit(st, resp, 10_000, 1<<62, link)
		if v, _ := p.cache.PeekView(st.key); (v.Chain != 0) != tc.want {
			t.Errorf("%s during the exchange: chain %d, want covered %v", tc.name, v.Chain, tc.want)
		}
	}
	// Past maxNamed paths named since the request, the proxy cannot tell.
	link := p.hosts.take(changeHost, 10_000).link
	for i := 0; i <= 2*maxNamed; i++ {
		p.hosts.chain(changeHost, []core.Element{{URL: fmt.Sprintf("/z/%d", i)}}, false)
	}
	if p.hosts.current(changeHost, "/a/x", 1000, link) {
		t.Error("covered after more changes than the record keeps")
	}
}

// offlineProxy returns a proxy with Δ = 600 s and no origin behind it, for
// tests that admit entries directly, and a response to admit.
func offlineProxy(t *testing.T) (*Proxy, *httpwire.Response) {
	t.Helper()
	p := New(Config{Delta: 600, Clock: func() int64 { return 10_000 },
		Resolve: func(string) (string, error) { return "", nil }})
	t.Cleanup(p.Close)
	resp := httpwire.NewResponse(200)
	resp.Body = []byte("x")
	resp.Header.Set("Last-Modified", httpwire.FormatHTTPDate(1000))
	return p, resp
}

// TestWatermarkBreakUncoversEarlierCopies: after a break — here the
// origin restarted, so the proxy's token is of another epoch — no copy
// admitted before it is kept past its own expiry, while copies admitted
// after it are, once a complete list comes.
func TestWatermarkBreakUncoversEarlierCopies(t *testing.T) {
	cb := newChangeBed(t, Config{Delta: 600}, "/a/page.html", "/a/old.html", "/a/new.html", "/a/o.html")
	cb.get("/a/page.html")
	cb.get("/a/old.html") // covered
	cb.proxy.hosts.noteSince(changeHost, "restarted.9", 10_000)
	cb.now.Add(10)
	cb.get("/a/new.html") // the break: admitted uncovered
	cb.get("/a/page.html")
	cb.now.Add(10)
	cb.get("/a/o.html") // a complete list after the break; covered
	cb.now.Store(10_615)
	cb.get("/a/page.html") // a fresh exchange: the watermark is 10_615
	for path, want := range map[string]string{"/a/old.html": "MISS", "/a/new.html": "MISS", "/a/o.html": "HIT"} {
		if r := cb.get(path); r.Header.Get("X-Cache") != want {
			t.Errorf("%s at 10_615: X-Cache %q, want %s", path, r.Header.Get("X-Cache"), want)
		}
	}
}

// TestWatermarkCappedListHoldsNoWatermark: a list the cap cut short moves
// the token but sets the watermark back to none, so an expired copy is
// validated; the complete list that follows restores it.
func TestWatermarkCappedListHoldsNoWatermark(t *testing.T) {
	var paths []string
	for i := 0; i <= httpwire.MaxChanges; i++ {
		paths = append(paths, fmt.Sprintf("/b/p%03d.html", i))
	}
	cb := newChangeBed(t, Config{Delta: 600}, append(paths, "/a/page.html", "/a/o1.html", "/a/o2.html")...)
	cb.get("/a/page.html") // the break
	cb.get("/a/o1.html")   // covered
	for _, path := range paths {
		cb.store.Modify(path, 5000, 0)
	}
	cb.now.Store(10_601)
	cb.get("/a/o2.html") // capped: 64 of the 65 changes
	if r := cb.get("/a/o1.html"); r.Header.Get("X-Cache") != "MISS" {
		t.Errorf("after a capped list: X-Cache %q, want a validation (MISS)", r.Header.Get("X-Cache"))
	}
	// That validation's list carried the last change, complete.
	cb.now.Store(11_202)
	cb.get("/a/page.html")
	if r := cb.get("/a/o1.html"); r.Header.Get("X-Cache") != "HIT" {
		t.Errorf("after the complete list: X-Cache %q, want HIT", r.Header.Get("X-Cache"))
	}
}

// TestWatermarkPeerCopyNotCovered: a copy a mesh peer served is admitted
// on no link, so it expires with the owner's copy whatever the requester
// hears from the origin.
func TestWatermarkPeerCopyNotCovered(t *testing.T) {
	f := newFleet(t, 2, Config{Delta: 600})
	key := "www.site.com/a/x.html"
	requester := 1 - f.ownerIndex(t, key)
	for i := 0; ; i++ { // an origin exchange of the requester's own first
		own := fmt.Sprintf("www.site.com/a/r%d.html", i)
		if f.ownerIndex(t, own) == requester {
			f.get(t, requester, own)
			break
		}
	}
	if r := f.get(t, requester, key); r.Header.Get("X-Cache") != "PEER" {
		t.Fatalf("X-Cache %q, want PEER", r.Header.Get("X-Cache"))
	}
	if v, ok := f.px[requester].cache.PeekView(key); !ok || v.Chain != 0 {
		t.Errorf("peer copy: servable %v, chain %d, want one on no chain", ok, v.Chain)
	}
}

// TestWatermarkDiskCopyNotCovered: a copy evicted from the RAM tier and
// read back from disk carries no link: it is validated once it expires.
func TestWatermarkDiskCopyNotCovered(t *testing.T) {
	ts, err := tiered.New(cache.NewSharded(20_000, 1, nil), tiered.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cb := newChangeBed(t, Config{Delta: 600, Store: ts}, "/a/page.html", "/a/big1.html", "/a/big2.html", "/a/o.html")
	cb.get("/a/page.html") // the break
	cb.get("/a/big1.html") // covered, in RAM
	cb.get("/a/big1.html") // a hit: worth a disk write when evicted
	cb.get("/a/big2.html") // evicts big1 to disk
	if v, ok := cb.proxy.cache.PeekView(changeHost + "/a/big1.html"); !ok || v.Chain != 0 {
		t.Fatalf("big1 read back from disk: servable %v, chain %d, want no chain", ok, v.Chain)
	}
	cb.now.Store(10_601)
	cb.get("/a/o.html")
	if r := cb.get("/a/big1.html"); r.Header.Get("X-Cache") != "MISS" {
		t.Errorf("big1 past its expiry: X-Cache %q, want a validation (MISS)", r.Header.Get("X-Cache"))
	}
}

package proxy

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"piggyback/internal/core"
	"piggyback/internal/httpwire"
	"piggyback/internal/obs"
	"piggyback/internal/server"
)

const changeHost = "www.site.com"

// changeBed is a proxy, driven directly through ServeWire, in front of a
// real origin with no volume engine: a change list is the only channel
// that can name a newer version unasked. The origin records each request's
// Piggy-Since value and each P-Changes value it sends; volume, when set,
// is attached to the next response as a P-Volume message. oldOrigin makes
// it one that knows nothing of change lists, and unmarked one that lists
// changes but never marks a list complete, and attaches nothing when
// nothing changed (the first version of change lists).
type changeBed struct {
	now    atomic.Int64
	store  *server.Store
	origin *server.Server
	proxy  *Proxy

	mu        sync.Mutex
	since     []string
	sent      []string
	volume    *core.Message
	oldOrigin bool
	unmarked  bool
}

func newChangeBed(t *testing.T, cfg Config, paths ...string) *changeBed {
	t.Helper()
	cb := &changeBed{store: server.NewStore()}
	cb.now.Store(10_000)
	for _, p := range paths {
		cb.store.Put(server.Resource{URL: p, Size: 16384, LastModified: 1000})
	}
	cb.origin = server.New(cb.store, nil, cb.now.Load)
	addr := startOrigin(t, httpwire.HandlerFunc(func(ctx context.Context, req *httpwire.Request) *httpwire.Response {
		cb.mu.Lock()
		defer cb.mu.Unlock()
		cb.since = append(cb.since, req.Header.Get(httpwire.FieldPiggySince))
		if cb.oldOrigin {
			req.Header.Del(httpwire.FieldPiggySince)
		}
		resp := cb.origin.ServeWire(ctx, req)
		if v := resp.Trailer.Get(httpwire.FieldPChanges); cb.unmarked && v != "" {
			if v = strings.TrimSuffix(v, ","); strings.HasSuffix(v, ";") {
				resp.Trailer.Del(httpwire.FieldPChanges)
			} else {
				resp.Trailer.Set(httpwire.FieldPChanges, v)
			}
		}
		if v := resp.Trailer.Get(httpwire.FieldPChanges); v != "" {
			cb.sent = append(cb.sent, v)
		}
		if cb.volume != nil {
			httpwire.AttachPiggyback(resp, *cb.volume)
			cb.volume = nil
		}
		return resp
	}))
	cfg.Clock = cb.now.Load
	cfg.Resolve = func(string) (string, error) { return addr, nil }
	cb.proxy = New(cfg)
	t.Cleanup(cb.proxy.Close)
	return cb
}

// get serves path of changeHost through the proxy.
func (cb *changeBed) get(path string) *httpwire.Response {
	return proxyGet(cb.proxy, changeHost+path)
}

// sinceSent returns the Piggy-Since values the origin received so far and
// forgets them.
func (cb *changeBed) sinceSent() []string {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	s := cb.since
	cb.since = nil
	return s
}

// counters reads the named counters from h's /.piggy/stats.
func counters(t *testing.T, h httpwire.Handler, names ...string) map[string]int64 {
	t.Helper()
	resp := h.ServeWire(context.Background(), httpwire.NewRequest("GET", obs.StatsPath))
	var snap obs.Snapshot
	if err := json.Unmarshal(resp.Body, &snap); err != nil {
		t.Fatalf("%s: %v", obs.StatsPath, err)
	}
	out := make(map[string]int64, len(names))
	for _, n := range names {
		out[n] = snap.Counter(n)
	}
	return out
}

// TestChangeListMakesOldVersionUnservable: after Store.Modify, the first
// origin exchange on that host — for any path — makes the cached old
// version unservable, long before its Δ runs out; the copy stays as a
// delta base, and its next read is a 226 refetch.
func TestChangeListMakesOldVersionUnservable(t *testing.T) {
	cb := newChangeBed(t, Config{Delta: 600, DeltaEncoding: true}, "/a/page.html", "/a/other.html")
	key := changeHost + "/a/page.html"
	cb.get("/a/page.html") // miss; the exchange is a break, and sets the token
	cb.store.Modify("/a/page.html", 5000, 0)
	cb.now.Add(10)
	if r := cb.get("/a/page.html"); r.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("before any exchange: X-Cache %q, want HIT (nothing told the proxy yet)", r.Header.Get("X-Cache"))
	}
	cb.get("/a/other.html") // another path: its answer lists page.html
	if v, ok := cb.proxy.cache.PeekView(key); ok || !v.Outdated || v.LastModified != 1000 {
		t.Fatalf("after the exchange: servable %v, outdated %v, Last-Modified %d; want an unservable base of 1000", ok, v.Outdated, v.LastModified)
	}
	before := cb.proxy.Stats()
	refetches := cb.proxy.Obs().Snapshot().Counter("proxy.delta_base_refetches")
	r := cb.get("/a/page.html")
	if r.Status != 200 || r.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("next read: %d X-Cache %q, want a 200 MISS", r.Status, r.Header.Get("X-Cache"))
	}
	if lm, _ := r.LastModified(); lm != 5000 {
		t.Errorf("next read served Last-Modified %d, want 5000", lm)
	}
	moved := statsMoved(before, cb.proxy.Stats())
	if moved.DeltaUpdates != 1 || cb.proxy.Obs().Snapshot().Counter("proxy.delta_base_refetches")-refetches != 1 {
		t.Errorf("next read: %d delta updates, want 1 patch against the base", moved.DeltaUpdates)
	}
	// The first request carried no token; the second the break's, and the
	// third the one the list moved it to.
	if since := cb.sinceSent(); len(since) != 3 || since[0] != httpwire.NoToken || since[1] == httpwire.NoToken || since[2] == since[1] {
		t.Errorf("Piggy-Since sent %q, want %q, then two different tokens", since, httpwire.NoToken)
	}
}

// TestChangeListNeverExtendsPastDelta: a change list naming a copy's own
// version refreshes it as a volume's element would: to Δ past the request
// that carried the list, never beyond. Here the proxy's token is set back
// — an older answer landing last — so the list names a version the proxy
// already holds.
func TestChangeListNeverExtendsPastDelta(t *testing.T) {
	cb := newChangeBed(t, Config{Delta: 600}, "/a/page.html", "/a/o1.html", "/a/o2.html")
	key := changeHost + "/a/page.html"
	cb.get("/a/o1.html")
	old := cb.token(t)
	cb.store.Modify("/a/page.html", 5000, 0)
	cb.now.Add(10)
	cb.get("/a/page.html") // fetches the new version; the list leaves it out
	if v, ok := cb.proxy.cache.PeekView(key); !ok || v.LastModified != 5000 || v.Expires != 10_010+600 {
		t.Fatalf("fetched copy: servable %v, Last-Modified %d, expires %d", ok, v.LastModified, v.Expires)
	}
	cb.proxy.hosts.noteSince(changeHost, old, 0)
	cb.now.Add(90)
	before := cb.proxy.Stats()
	cb.get("/a/o2.html") // the old token: the list names page.html at 5000
	if moved := statsMoved(before, cb.proxy.Stats()); moved.Refreshes != 1 || moved.Invalidations != 0 {
		t.Errorf("re-sent change: %d refreshes, %d invalidations, want 1 and 0", moved.Refreshes, moved.Invalidations)
	}
	if v, ok := cb.proxy.cache.PeekView(key); !ok || v.Expires != cb.now.Load()+600 {
		t.Errorf("re-sent change: servable %v, expires %d, want %d (now + Δ)", ok, v.Expires, cb.now.Load()+600)
	}
}

// token returns the proxy's current token for changeHost.
func (cb *changeBed) token(t *testing.T) string {
	t.Helper()
	since := cb.proxy.hosts.take(changeHost, 0).since
	if since == httpwire.NoToken {
		t.Fatal("the proxy holds no token")
	}
	return since
}

// TestChangeListMixedVersions: an origin that predates change lists sends
// no token, so the proxy keeps sending "-" and its copies live out their Δ
// as before; neither it, nor one that stops sending lists, nor one that
// never marks a list complete yields a watermark hit. A proxy that
// predates change lists sends no Piggy-Since, and the origin attaches
// nothing; the Piggy-Validate list it sends is not answered, while the
// answers to its hits still carry the digest of both its lists.
func TestChangeListMixedVersions(t *testing.T) {
	t.Run("old origin", func(t *testing.T) {
		cb := newChangeBed(t, Config{Delta: 600}, "/a/page.html", "/a/other.html")
		cb.oldOrigin = true
		cb.get("/a/page.html")
		cb.store.Modify("/a/page.html", 5000, 0)
		cb.now.Add(10)
		cb.get("/a/other.html")
		if r := cb.get("/a/page.html"); r.Header.Get("X-Cache") != "HIT" {
			t.Errorf("X-Cache %q, want HIT: nothing told the proxy of the change", r.Header.Get("X-Cache"))
		}
		if since := cb.sinceSent(); len(since) != 2 || since[0] != httpwire.NoToken || since[1] != httpwire.NoToken {
			t.Errorf("Piggy-Since sent %q, want %q on every request", since, httpwire.NoToken)
		}
		cb.now.Add(601) // past other.html's expiry
		if r := cb.get("/a/other.html"); r.Header.Get("X-Cache") != "MISS" {
			t.Errorf("expired copy: X-Cache %q, want a validation (MISS)", r.Header.Get("X-Cache"))
		}
		if n := counters(t, cb.proxy, "proxy.change_breaks", "proxy.watermark_hits"); n["proxy.change_breaks"] != 0 || n["proxy.watermark_hits"] != 0 {
			t.Errorf("counters %v, want no break and no watermark hit", n)
		}
	})
	for _, stop := range []string{"origin stops sending lists", "origin marks no list complete"} {
		t.Run(stop, func(t *testing.T) {
			cb := newChangeBed(t, Config{Delta: 600}, "/a/page.html", "/a/o1.html", "/a/o2.html", "/a/o3.html")
			cb.unmarked = stop == "origin marks no list complete"
			cb.get("/a/page.html") // a break
			cb.get("/a/o1.html")   // nothing new: complete, unless unmarked
			cb.now.Add(300)
			cb.store.Modify("/a/page.html", 5000, 0)
			cb.get("/a/o2.html") // lists page.html: complete, unless unmarked
			cb.oldOrigin = !cb.unmarked
			cb.now.Add(10)
			cb.get("/a/o3.html") // no list at all, or none marked complete
			cb.now.Store(10_605) // o1's copy expired at 10_600
			if r := cb.get("/a/o1.html"); r.Header.Get("X-Cache") != "MISS" {
				t.Errorf("expired copy: X-Cache %q, want a validation (MISS)", r.Header.Get("X-Cache"))
			}
			if n := counters(t, cb.proxy, "proxy.watermark_hits")["proxy.watermark_hits"]; n != 0 {
				t.Errorf("proxy.watermark_hits = %d, want 0", n)
			}
		})
	}
	t.Run("old proxy", func(t *testing.T) {
		st := server.NewStore()
		st.Put(server.Resource{URL: "/a/page.html", Size: 100, LastModified: 1000})
		st.Put(server.Resource{URL: "/a/hit.gif", Size: 50, LastModified: 1500})
		st.Put(server.Resource{URL: "/a/due.html", Size: 70, LastModified: 900})
		origin := server.New(st, nil, func() int64 { return 10_000 })
		req := httpwire.NewRequest("GET", "/a/page.html")
		httpwire.SetFilter(req, core.Filter{MaxPiggy: 10})
		httpwire.SetPaths(req, httpwire.FieldPiggyHits, []string{"/a/hit.gif"})
		httpwire.SetPaths(req, httpwire.FieldPiggyValidate, []string{"/a/due.html"})
		st.Modify("/a/page.html", 5000, 0)
		resp := origin.ServeWire(context.Background(), req)
		if v := resp.Trailer.Get(httpwire.FieldPChanges); v != "" {
			t.Errorf("P-Changes %q attached for a request without Piggy-Since", v)
		}
		want := []httpwire.Answer{{I: 0, LastModified: 1500, Size: 50}}
		if got := httpwire.ExtractAnswers(resp, req, 2); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("answers %+v to an old proxy's lists, want %+v: the hit alone, under the digest of both", got, want)
		}
	})
}

// TestChangeListCountersExact: a known sequence of modifications moves the
// per-channel invalidation counters, the change-list counters on both
// sides' /.piggy/stats and the watermark's hits by exactly what crossed
// the wire.
func TestChangeListCountersExact(t *testing.T) {
	paths := []string{"/a/A.html", "/a/B.html", "/a/C.html", "/a/D.html", "/a/E.html", "/a/F.html", "/a/G.html"}
	cb := newChangeBed(t, Config{Delta: 600, DeltaEncoding: true}, paths...)
	cb.get("/a/A.html") // break
	cb.get("/a/B.html") // nothing changed: a complete, empty list
	cb.get("/a/C.html")
	cb.store.Modify("/a/A.html", 5000, 0)
	cb.store.Modify("/a/B.html", 5000, 0)
	cb.now.Add(10)
	cb.get("/a/D.html") // lists A and B: two invalidations by change list
	cb.store.Modify("/a/C.html", 5000, 0)
	cb.get("/a/C.html") // a fresh hit, reported on the next request
	cb.get("/a/E.html") // the answer to the report invalidates C; the list names C again
	cb.store.Modify("/a/D.html", 5000, 0)
	cb.volume = &core.Message{Volume: 1, Elements: []core.Element{{URL: "/a/D.html", Size: 16384, LastModified: 5000}}}
	cb.get("/a/F.html") // the volume invalidates D; the list names D again
	cb.now.Store(10_650)
	cb.get("/a/G.html") // nothing changed: the watermark moves to 10_650
	cb.now.Store(10_700)
	// Past their own expiry (10_610), E and F are kept fresh by the
	// watermark; A is a delta base, refetched.
	for path, want := range map[string]string{"/a/E.html": "HIT", "/a/F.html": "HIT", "/a/A.html": "MISS"} {
		if r := cb.get(path); r.Header.Get("X-Cache") != want {
			t.Errorf("%s at 10_700: X-Cache %q, want %s", path, r.Header.Get("X-Cache"), want)
		}
	}

	changeBytes := int64(0)
	for _, v := range cb.sent {
		changeBytes += int64(len(v))
	}
	want := map[string]int64{
		"proxy.invalidations":         4,
		"proxy.invalidations.changes": 2,
		"proxy.invalidations.answer":  1,
		"proxy.invalidations.volume":  1,
		"proxy.change_breaks":         1,
		"proxy.watermark_hits":        2,
		"proxy.validations":           0,
	}
	for name, got := range counters(t, cb.proxy, "proxy.invalidations", "proxy.invalidations.changes", "proxy.invalidations.answer", "proxy.invalidations.volume", "proxy.change_breaks", "proxy.watermark_hits", "proxy.validations") {
		if got != want[name] {
			t.Errorf("%s = %d, want %d", name, got, want[name])
		}
	}
	want = map[string]int64{"server.changes_sent": 4, "server.change_breaks": 1, "server.change_bytes": changeBytes}
	for name, got := range counters(t, cb.origin, "server.changes_sent", "server.change_breaks", "server.change_bytes") {
		if got != want[name] {
			t.Errorf("%s = %d, want %d", name, got, want[name])
		}
	}
	// The break, two empty lists, three lists naming changes, the empty
	// list that moved the watermark, and the answer to A's refetch.
	if len(cb.sent) != 8 {
		t.Errorf("P-Changes sent %q, want 8 values", cb.sent)
	}
}

// TestChangeListQueuesNoPrefetch: a changed resource the proxy holds no
// copy of is not fetched speculatively, and a prefetch carries no token:
// both the list and the token belong to demand requests.
func TestChangeListQueuesNoPrefetch(t *testing.T) {
	cb := newChangeBed(t, Config{Delta: 600, Prefetch: true, DeltaEncoding: true}, "/a/page.html", "/a/other.html", "/a/cold.html")
	cb.get("/a/page.html")
	cb.store.Modify("/a/page.html", 5000, 0)
	cb.store.Modify("/a/cold.html", 5000, 0)
	cb.get("/a/other.html")
	if n := cb.proxy.Queue().Len(); n != 0 {
		t.Errorf("%d prefetches queued by a change list, want 0", n)
	}
	cb.proxy.Queue().Push(FetchItem{Host: changeHost, URL: "/a/cold.html", Size: 16384})
	cb.sinceSent()
	if n := cb.proxy.DrainPrefetchesContext(context.Background(), 1); n != 1 {
		t.Fatalf("drained %d prefetches, want 1", n)
	}
	if since := cb.sinceSent(); len(since) != 1 || since[0] != "" {
		t.Errorf("the prefetch carried Piggy-Since %q, want none", since)
	}
}

// TestChangeListTokenRace: concurrent demand requests race their token
// updates while the origin changes underneath them (run under -race). Every
// response is a 200; the token the proxy ends with is one its origin
// issued; and once the origin stops changing, one exchange catches the
// token up, so the next lists nothing.
func TestChangeListTokenRace(t *testing.T) {
	const n = 24
	var paths []string
	for i := 0; i < n; i++ {
		paths = append(paths, fmt.Sprintf("/r/p%02d.html", i))
	}
	cb := newChangeBed(t, Config{Delta: 30, DeltaEncoding: true}, append(paths, "/r/last.html", "/r/after.html")...)
	var wg sync.WaitGroup
	var bad atomic.Int32
	var version atomic.Int64
	version.Store(2000)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// 900 changes in all, fewer than the origin's log holds, so
			// no token falls behind it: a break here would be a lost
			// token, not the horizon.
			for i := 0; i < 150; i++ {
				cb.store.Modify(paths[(g*5+i)%n], version.Add(1), 0)
				cb.now.Add(1)
				if r := cb.get(paths[(g*7+i)%n]); r.Status != 200 {
					bad.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if b := bad.Load(); b != 0 {
		t.Fatalf("%d requests failed", b)
	}
	if n := counters(t, cb.origin, "server.changes_sent")["server.changes_sent"]; n == 0 {
		t.Fatal("no change was listed while the clients ran: the race was not run")
	}
	token := cb.token(t)
	if _, _, brk := cb.store.Changes(token, "", 0); brk {
		t.Errorf("the proxy's token %q is not one its origin can serve", token)
	}
	cb.mu.Lock()
	cb.sent = nil
	cb.mu.Unlock()
	cb.get("/r/last.html")
	cb.get("/r/after.html")
	cb.mu.Lock()
	defer cb.mu.Unlock()
	if len(cb.sent) != 2 || strings.Count(cb.sent[0], ";") != 1 || !strings.HasSuffix(cb.sent[1], ";,") {
		t.Errorf("after the changes stopped, the origin sent %q: want a list, then one saying nothing changed", cb.sent)
	}
}

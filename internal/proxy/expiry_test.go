package proxy

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"piggyback/internal/cache"
	"piggyback/internal/core"
	"piggyback/internal/httpwire"
	"piggyback/internal/obs"
	"piggyback/internal/server"
)

const expHost = "www.site.com"

// indexOf returns a table with paths noted at the given expiries.
func indexOf(t *testing.T, expiries map[string]int64) *hostTable {
	t.Helper()
	h := newHostTable(600)
	for path, exp := range expiries {
		if !h.note(expHost, path, exp, false) {
			t.Fatalf("note(%s) refused", path)
		}
	}
	return h
}

// offlineProxy returns a proxy with Δ = 600 s and no origin behind it,
// for tests that admit entries and build requests directly, and a
// response to admit.
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

// list returns the paths h lists on expHost's next request for self.
func list(h *hostTable, self string, now, until int64) []string {
	listed := h.take(expHost, self, now, until).listed
	return listedPaths(listed)
}

// listedPaths returns the paths of listed, in order.
func listedPaths(listed []listing) []string {
	var paths []string
	for _, l := range listed {
		paths = append(paths, l.path)
	}
	return paths
}

// TestExpiryIndexListsInPathOrder: the due paths are listed in path order,
// not in the order they expire, so that front coding shares their prefixes.
func TestExpiryIndexListsInPathOrder(t *testing.T) {
	h := indexOf(t, map[string]int64{"/c": 1010, "/a": 1040, "/d": 1020, "/b": 1030})
	if listed := list(h, "/self", 1000, 1100); !reflect.DeepEqual(listed, []string{"/a", "/b", "/c", "/d"}) {
		t.Errorf("listed %v, want [/a /b /c /d]", listed)
	}
}

// TestExpiryIndexListsAtMostMaxListed: past maxListed due paths, the
// soonest are listed (in path order) and the rest wait for the next
// request. Expiry order is the reverse of path order here.
func TestExpiryIndexListsAtMostMaxListed(t *testing.T) {
	const extra = 5
	exp := map[string]int64{}
	var soonest []string
	for i := 0; i < maxListed+extra; i++ {
		path := fmt.Sprintf("/p%02d", i)
		exp[path] = int64(2000 - i)
		if i >= extra {
			soonest = append(soonest, path)
		}
	}
	h := indexOf(t, exp)
	if listed := list(h, "/self", 1000, 2000); !reflect.DeepEqual(listed, soonest) {
		t.Fatalf("listed %v, want the %d soonest %v", listed, maxListed, soonest)
	}
	if listed := list(h, "/self", 1000, 2000); len(listed) != extra || listed[0] != "/p00" {
		t.Errorf("second request listed %v, want the %d left", listed, extra)
	}
}

// TestExpiryIndexWindow: only expiries up to until are listed; later ones
// stay indexed and are listed once the window reaches them.
func TestExpiryIndexWindow(t *testing.T) {
	h := indexOf(t, map[string]int64{"/in": 1150, "/edge": 1200, "/out": 1201})
	if listed := list(h, "/self", 1000, 1200); !reflect.DeepEqual(listed, []string{"/edge", "/in"}) {
		t.Fatalf("listed %v, want [/edge /in]", listed)
	}
	if listed := list(h, "/self", 1001, 1201); !reflect.DeepEqual(listed, []string{"/out"}) {
		t.Errorf("listed %v once the window moved, want [/out]", listed)
	}
}

// TestExpiryIndexDropsExpired: an expiry at or before now is not listed —
// the entry's next read validates it — and it leaves the index, counted in
// proxy.expiry_index_expired, which /.piggy/stats serves.
func TestExpiryIndexDropsExpired(t *testing.T) {
	h := indexOf(t, map[string]int64{"/gone": 990, "/now": 1000, "/soon": 1010})
	o := h.take(expHost, "/self", 1000, 1200)
	listed, expired := o.listed, o.expired
	if paths := listedPaths(listed); !reflect.DeepEqual(paths, []string{"/soon"}) || expired != 2 {
		t.Fatalf("listed %v, %d expired, want [/soon] and 2", paths, expired)
	}
	if n := h.indexed.Load(); n != 0 {
		t.Errorf("%d keys indexed after the expired ones were popped, want 0", n)
	}

	p, resp := offlineProxy(t)
	p.admit(expHost+"/gone", resp, 10_000, math.MaxInt64, false) // expires 10_600
	p.admit(expHost+"/soon", resp, 10_100, math.MaxInt64, false) // expires 10_700
	if _, sent, _ := p.originRequest(upstreamState{key: expHost + "/self", host: expHost, path: "/self"}, false, 10_600); !reflect.DeepEqual(sent, []string{"/soon"}) {
		t.Fatalf("sent %v, want [/soon]", sent)
	}
	stats := p.ServeWire(context.Background(), httpwire.NewRequest("GET", obs.StatsPath))
	var s obs.Snapshot
	if err := json.Unmarshal(stats.Body, &s); err != nil {
		t.Fatal(err)
	}
	if n := s.Counter("proxy.expiry_index_expired"); n != 1 {
		t.Errorf("proxy.expiry_index_expired = %d on %s, want 1", n, obs.StatsPath)
	}
}

// TestExpiryIndexSkipsSelfAndHits: the request's own path and its reported
// hits are answered anyway, so they are not listed; they stay indexed.
func TestExpiryIndexSkipsSelfAndHits(t *testing.T) {
	h := indexOf(t, map[string]int64{"/self": 1010, "/hit": 1020, "/other": 1030})
	h.add(expHost, "/hit")
	o := h.take(expHost, "/self", 1000, 1200)
	hits, listed := o.hits, o.listed
	if paths := listedPaths(listed); !reflect.DeepEqual(hits, []string{"/hit"}) || !reflect.DeepEqual(paths, []string{"/other"}) {
		t.Fatalf("hits %v, listed %v, want [/hit] and [/other]", hits, paths)
	}
	if paths := list(h, "/x", 1000, 1200); !reflect.DeepEqual(paths, []string{"/hit", "/self"}) {
		t.Errorf("next request listed %v, want [/hit /self]", paths)
	}
}

// TestExpiryIndexPickedKeyAbsentUntilRefreshed: a listed key is not listed
// again until a step gives it an expiry anew.
func TestExpiryIndexPickedKeyAbsentUntilRefreshed(t *testing.T) {
	h := indexOf(t, map[string]int64{"/a": 1010})
	if listed := list(h, "/self", 1000, 1200); len(listed) != 1 {
		t.Fatalf("listed %v, want [/a]", listed)
	}
	if listed := list(h, "/self", 1001, 1201); len(listed) != 0 {
		t.Fatalf("listed %v again before an answer, want none", listed)
	}
	if n := h.indexed.Load(); n != 0 {
		t.Fatalf("%d keys indexed after the pick, want 0", n)
	}
	// An answer that leaves the expiry where it was indexes the key anew.
	h.note(expHost, "/a", 1010, true)
	if listed := list(h, "/self", 1002, 1202); !reflect.DeepEqual(listed, []string{"/a"}) {
		t.Errorf("listed %v after the refresh, want [/a]", listed)
	}
}

// TestExpiryIndexUseful: a hit report naming a path whose expiry came from
// the answer to a listing counts once; one from any other step does not.
func TestExpiryIndexUseful(t *testing.T) {
	h := newHostTable(600)
	h.note(expHost, "/ahead", 2000, true)
	h.note(expHost, "/plain", 2000, false)
	h.add(expHost, "/ahead")
	h.add(expHost, "/plain")
	if useful := h.take(expHost, "/self", 1000, 1100).useful; useful != 1 {
		t.Errorf("useful %d, want 1", useful)
	}
	h.add(expHost, "/ahead")
	if useful := h.take(expHost, "/self", 1000, 1100).useful; useful != 0 {
		t.Errorf("useful %d on the second report, want 0", useful)
	}
}

// TestExpiryIndexCap: past maxIndexed keys, over all hosts, new keys are
// refused while indexed ones still take new expiries.
func TestExpiryIndexCap(t *testing.T) {
	h := newHostTable(600)
	refused := 0
	for i := 0; i < maxIndexed+10; i++ {
		if !h.note(fmt.Sprintf("h%d.test", i%7), fmt.Sprintf("/p%d", i), 5000, false) {
			refused++
		}
	}
	if refused != 10 || h.indexed.Load() != maxIndexed {
		t.Fatalf("refused %d, indexed %d, want 10 and %d", refused, h.indexed.Load(), maxIndexed)
	}
	if !h.note("h0.test", "/p0", 6000, false) {
		t.Error("an indexed key was refused a new expiry at the cap")
	}
	live := 0
	for i := range h.stripes {
		for _, hr := range h.stripes[i].m {
			live += len(hr.live)
		}
	}
	if live != maxIndexed {
		t.Errorf("%d live keys, want %d", live, maxIndexed)
	}
}

// TestExpiryIndexCompaction: under a long churn of refreshes, superseded
// heap items never outnumber the live keys.
func TestExpiryIndexCompaction(t *testing.T) {
	h := newHostTable(600)
	const keys = 100
	for round := int64(0); round < 1000; round++ {
		for k := 0; k < keys; k++ {
			h.note(expHost, fmt.Sprintf("/p%d", k), 2000+round*10+int64(k), false)
			hr := h.stripe(expHost).m[expHost]
			if len(hr.heap) > 2*len(hr.live) {
				t.Fatalf("round %d: heap %d items for %d live keys", round, len(hr.heap), len(hr.live))
			}
		}
	}
	// Draining every key leaves nothing behind.
	for {
		if len(list(h, "/self", 1000, 1<<40)) == 0 {
			break
		}
	}
	if n, m := h.indexed.Load(), len(h.stripe(expHost).m); n != 0 || m != 0 {
		t.Errorf("%d keys indexed, %d host entries left, want 0 and 0", n, m)
	}
}

// TestExpiryIndexInvalidationDrops: an element naming a newer version
// deletes the cached copy, and its key leaves the index with it.
func TestExpiryIndexInvalidationDrops(t *testing.T) {
	p, resp := offlineProxy(t)
	p.admit(expHost+"/a", resp, 10_000, math.MaxInt64, false)
	p.admit(expHost+"/b", resp, 10_000, math.MaxInt64, false)
	p.applyElement(expHost, core.Element{URL: "/a", Size: 1, LastModified: 5000}, 10_000, viaVolume)
	if listed := list(p.hosts, "/self", 10_500, 10_650); !reflect.DeepEqual(listed, []string{"/b"}) {
		t.Errorf("listed %v, want [/b]", listed)
	}
}

// TestExpiryIndexForgetsEvicted: a key the store evicts to make room for
// another leaves the index with its copy, so no request lists it.
func TestExpiryIndexForgetsEvicted(t *testing.T) {
	p := New(Config{Delta: 600, Clock: func() int64 { return 10_000 },
		Resolve: func(string) (string, error) { return "", nil },
		Store:   cache.NewSharded(100, 1, nil)})
	t.Cleanup(p.Close)
	resp := httpwire.NewResponse(200)
	resp.Body = []byte(strings.Repeat("x", 60))
	resp.Header.Set("Last-Modified", httpwire.FormatHTTPDate(1000))
	p.admit(expHost+"/a", resp, 10_000, math.MaxInt64, false)
	p.admit(expHost+"/b", resp, 10_000, math.MaxInt64, false)
	if p.cache.Contains(expHost + "/a") {
		t.Fatal("/a still cached: the store did not evict it")
	}
	if n := p.hosts.indexed.Load(); n != 1 {
		t.Errorf("%d keys indexed, want 1", n)
	}
	if listed := list(p.hosts, "/self", 10_500, 10_650); !reflect.DeepEqual(listed, []string{"/b"}) {
		t.Errorf("listed %v, want [/b]", listed)
	}
}

// TestExpiryIndexSkipsRefusedBody: a body larger than a shard is not
// cached, so its key takes no index slot and no request lists it.
func TestExpiryIndexSkipsRefusedBody(t *testing.T) {
	p := New(Config{Delta: 600, Clock: func() int64 { return 10_000 },
		Resolve: func(string) (string, error) { return "", nil },
		Store:   cache.NewSharded(100, 1, nil)})
	t.Cleanup(p.Close)
	resp := httpwire.NewResponse(200)
	resp.Body = []byte(strings.Repeat("x", 200))
	resp.Header.Set("Last-Modified", httpwire.FormatHTTPDate(1000))
	p.admit(expHost+"/big", resp, 10_000, math.MaxInt64, false)
	if p.cache.Contains(expHost + "/big") {
		t.Fatal("/big cached: the store did not refuse it")
	}
	if n := p.hosts.indexed.Load(); n != 0 {
		t.Errorf("%d keys indexed, want 0", n)
	}
	if listed := list(p.hosts, "/self", 10_500, 10_650); len(listed) != 0 {
		t.Errorf("listed %v, want nothing", listed)
	}
}

// TestExpiryIndexSkipsCopyGoneBefore304: a 304 for a copy that left the
// cache during the exchange freshens nothing and indexes nothing.
func TestExpiryIndexSkipsCopyGoneBefore304(t *testing.T) {
	p, resp := offlineProxy(t)
	p.admit(expHost+"/a", resp, 10_000, math.MaxInt64, false)
	v, _ := p.cache.PeekView(expHost + "/a")
	p.cache.Delete(expHost + "/a")
	p.hosts.drop(expHost, "/a")
	p.notModified(upstreamState{key: expHost + "/a", host: expHost, path: "/a", v: v, hit: true}, 10_700)
	if n := p.hosts.indexed.Load(); n != 0 {
		t.Errorf("%d keys indexed, want 0", n)
	}
	if listed := list(p.hosts, "/self", 10_800, 11_400); len(listed) != 0 {
		t.Errorf("listed %v, want nothing", listed)
	}
}

// TestExpiryIndexPutsBackWhatDoesNotFit: listed paths the Piggy-Validate
// header budget leaves out go back to the index with their expiry, and the
// next request lists them.
func TestExpiryIndexPutsBackWhatDoesNotFit(t *testing.T) {
	p, resp := offlineProxy(t)
	// 30 paths of 101 bytes with no prefix to share: ~3 KB against the
	// 2,048-byte budget.
	var all []string
	for i := 0; i < 30; i++ {
		path := fmt.Sprintf("/%c%s", 'A'+i, strings.Repeat("x", 99))
		all = append(all, path)
		p.admit(expHost+path, resp, 10_000+int64(i), math.MaxInt64, false)
	}
	self := upstreamState{key: expHost + "/self", host: expHost, path: "/self"}
	oreq, first, _ := p.originRequest(self, false, 10_500)
	if len(first) == 0 || len(first) == len(all) {
		t.Fatalf("first request listed %d of %d paths, want the budget to cut the list", len(first), len(all))
	}
	if got := httpwire.GetPaths(oreq, httpwire.FieldPiggyValidate); !reflect.DeepEqual(got, first) {
		t.Fatalf("Piggy-Validate decodes to %v, sent %v", got, first)
	}
	_, second, _ := p.originRequest(self, false, 10_501)
	if got := append(first, second...); !reflect.DeepEqual(got, all) {
		t.Errorf("two requests listed %d + %d paths, want all %d once, in path order", len(first), len(second), len(all))
	}
	if n := p.Obs().Snapshot().Counter("proxy.expiry_validations"); n != int64(len(all)) {
		t.Errorf("proxy.expiry_validations = %d, want %d", n, len(all))
	}
}

// TestListedInPathOrderAnsweredByPosition: paths due in one order are
// listed in path order, and each P-Valid2 answer lands on the path at its
// index: the unchanged ones are freshened, the changed one — first in path
// order, last to expire — is invalidated, and nothing is prefetched.
func TestListedInPathOrderAnsweredByPosition(t *testing.T) {
	const (
		pathB, pathM, pathZ = "/a/b.html", "/a/m.html", "/a/z.html"
		missPath            = "/a/c.html"
	)
	st := server.NewStore()
	for _, path := range []string{pathB, pathM, pathZ, missPath} {
		st.Put(server.Resource{URL: path, Size: 100, LastModified: 1000})
	}
	var now atomic.Int64
	now.Store(10_000)
	origin := server.New(st, nil, now.Load)
	var validate atomic.Value
	addr := startOrigin(t, httpwire.HandlerFunc(func(ctx context.Context, req *httpwire.Request) *httpwire.Response {
		if req.Header.Has(httpwire.FieldPiggyValidate) {
			validate.Store(httpwire.GetPaths(req, httpwire.FieldPiggyValidate))
		}
		return origin.ServeWire(ctx, req)
	}))
	p := New(Config{Delta: 600, Prefetch: true, Clock: now.Load, Resolve: func(string) (string, error) { return addr, nil }})
	t.Cleanup(p.Close)

	for _, path := range []string{pathZ, pathM, pathB} { // expire in this order
		proxyGet(p, expHost+path)
		now.Add(10)
	}
	st.Modify(pathB, 5000, 0)
	now.Store(10_500)
	before := p.Stats()
	proxyGet(p, expHost+missPath)

	if got, _ := validate.Load().([]string); !reflect.DeepEqual(got, []string{pathB, pathM, pathZ}) {
		t.Fatalf("Piggy-Validate decodes to %v, want path order [%s %s %s]", got, pathB, pathM, pathZ)
	}
	if moved := statsMoved(before, p.Stats()); moved.Invalidations != 1 || moved.Refreshes != 2 {
		t.Errorf("counters moved %+v, want 1 invalidation and 2 refreshes", moved)
	}
	if _, ok := p.cache.PeekView(expHost + pathB); ok {
		t.Errorf("%s still cached after its answer named a newer version", pathB)
	}
	for _, path := range []string{pathM, pathZ} {
		if v, ok := p.cache.PeekView(expHost + path); !ok || v.Expires != 10_500+600 {
			t.Errorf("%s cached %v, expires %d, want %d", path, ok, v.Expires, 10_500+600)
		}
	}
	if n := p.Queue().Len(); n != 0 {
		t.Errorf("%d prefetches queued, want 0", n)
	}
}

const (
	thirdPath = "/a/third.html"
	thirdKey  = "www.site.com" + thirdPath
)

// TestListedUnchangedEntryServedWithoutValidation: an entry nobody reads
// is listed, once inside Δ/4 of its expiry, on a request for another URL
// of its host; the answer moves its expiry, so a read past the original
// expiry is a fresh hit with no validation — and that hit, reported, makes
// the listing useful.
func TestListedUnchangedEntryServedWithoutValidation(t *testing.T) {
	sb := newAnswerBed(t)
	t0 := sb.now.Load()
	sb.get(seamKey) // miss: expires t0+600
	sb.now.Store(t0 + 400)
	sb.get(otherKey) // miss: seamKey expires beyond now+Δ/4, not listed
	reg := sb.proxy.Obs().Snapshot()
	if n := reg.Counter("proxy.expiry_validations"); n != 0 {
		t.Fatalf("%d listed at t0+400, want 0", n)
	}
	sb.now.Store(t0 + 500)
	sb.proxy.cache.Delete(otherKey)
	sb.get(otherKey) // miss: lists seamKey, expiring at t0+600
	if n := sb.proxy.Obs().Snapshot().Counter("proxy.expiry_validations"); n != 1 {
		t.Fatalf("%d listed at t0+500, want 1", n)
	}
	if v, ok := sb.proxy.cache.PeekView(seamKey); !ok || v.Expires != t0+500+600 {
		t.Fatalf("entry present %v, expires %d, want %d", ok, v.Expires, t0+500+600)
	}
	sb.now.Store(t0 + 700)
	before := sb.proxy.Stats()
	if r := sb.get(seamKey); r.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("after the original expiry: X-Cache %q, want HIT", r.Header.Get("X-Cache"))
	}
	if moved := statsMoved(before, sb.proxy.Stats()); moved.Validations != 0 || moved.FreshHits != 1 {
		t.Errorf("counters moved %+v, want one fresh hit and no validation", moved)
	}
	sb.proxy.cache.Delete(otherKey)
	sb.get(otherKey) // carries the hit report
	if n := sb.proxy.Obs().Snapshot().Counter("proxy.expiry_validations_useful"); n != 1 {
		t.Errorf("proxy.expiry_validations_useful = %d, want 1", n)
	}
}

// TestListedChangedEntryInvalidatedWithoutPrefetch: a listed entry whose
// origin copy changed is invalidated and queues no prefetch, while a
// changed reported hit answered in the same trailer still queues one.
func TestListedChangedEntryInvalidatedWithoutPrefetch(t *testing.T) {
	sb := newSeamBed(t, Config{Delta: 600, Prefetch: true})
	sb.store.Put(server.Resource{URL: otherPath, Size: 100, LastModified: 1000})
	sb.store.Put(server.Resource{URL: thirdPath, Size: 100, LastModified: 1000})
	t0 := sb.now.Load()
	sb.get(seamKey) // expires t0+600
	sb.now.Store(t0 + 300)
	sb.get(thirdKey) // expires t0+900
	sb.now.Store(t0 + 310)
	if r := sb.get(thirdKey); r.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("X-Cache %q, want HIT", r.Header.Get("X-Cache"))
	}
	sb.store.Modify(seamPath, 5000, 0)
	sb.store.Modify(thirdPath, 5000, 0)
	sb.now.Store(t0 + 500)
	before := sb.proxy.Stats()
	sb.get(otherKey) // lists seamKey, reports thirdKey
	moved := statsMoved(before, sb.proxy.Stats())
	if moved.Invalidations != 2 || moved.HitValidations != 1 {
		t.Fatalf("counters moved %+v, want 2 invalidations and 1 hit validation", moved)
	}
	if n := sb.proxy.Queue().Len(); n != 1 {
		t.Fatalf("%d prefetches queued, want 1", n)
	}
	if it, _ := sb.proxy.Queue().Pop(); it.Key() != thirdKey {
		t.Errorf("queued %s, want %s", it.Key(), thirdKey)
	}
}

// TestExpiryIndexConcurrent runs request building, answer application,
// admission and invalidation on one host at once (run it under -race), then
// checks the index's count and heap bound. The paths are long enough that a
// full list overflows the header budget, so requests put paths back too.
func TestExpiryIndexConcurrent(t *testing.T) {
	var now atomic.Int64
	now.Store(10_000)
	tick := func() int64 { return now.Add(1) }
	p := New(Config{Delta: 600, Clock: tick, Resolve: func(string) (string, error) { return "", nil }})
	t.Cleanup(p.Close)
	const paths = 64
	pad := strings.Repeat("x", 60)
	path := func(i int) string { return fmt.Sprintf("/p%02d/%s", i%paths, pad) }
	resp := httpwire.NewResponse(200)
	resp.Body = []byte("x")
	resp.Header.Set("Last-Modified", httpwire.FormatHTTPDate(1000))

	var wg sync.WaitGroup
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				f(i)
			}
		}()
	}
	run(func(i int) { p.admit(expHost+path(i*7), resp, tick(), math.MaxInt64, false) })
	run(func(i int) {
		_, sent, nHits := p.originRequest(upstreamState{key: expHost + path(i), host: expHost, path: path(i)}, false, tick())
		var answers []httpwire.Answer
		for j := nHits; j < len(sent); j++ {
			answers = append(answers, httpwire.Answer{I: j, Size: 1, LastModified: 1000})
		}
		p.applyValidations(expHost, answers, sent, nHits, tick())
	})
	run(func(i int) {
		p.applyElement(expHost, core.Element{URL: path(i * 3), Size: 1, LastModified: 1000 + int64(i%2)*4000}, tick(), viaVolume)
	})
	run(func(i int) { p.lookup(expHost+path(i*5), expHost, path(i*5), tick()) })
	wg.Wait()

	hr := p.hosts.stripe(expHost).m[expHost]
	live := 0
	if hr != nil {
		live = len(hr.live)
		if len(hr.heap) > 2*len(hr.live) {
			t.Errorf("heap %d items for %d live keys", len(hr.heap), len(hr.live))
		}
	}
	if n := p.hosts.indexed.Load(); n != int64(live) {
		t.Errorf("indexed count %d, live keys %d", n, live)
	}
	if live > paths {
		t.Errorf("%d live keys for %d paths", live, paths)
	}
}

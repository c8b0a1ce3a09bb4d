package proxy

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"piggyback/internal/cache"
	"piggyback/internal/core"
	"piggyback/internal/httpwire"
	"piggyback/internal/server"
)

func TestProxyReportsCacheHits(t *testing.T) {
	tb := newTestbed(t, Config{Delta: 600})
	tb.get(t, "www.site.com/a/x.html") // miss
	tb.now += 5
	tb.get(t, "www.site.com/a/x.html") // fresh hit -> pending report
	tb.get(t, "www.site.com/a/x.html") // another fresh hit
	tb.now += 5
	tb.get(t, "www.site.com/a/y.gif") // miss: carries the report upstream

	ps := tb.proxy.Stats()
	if ps.HitsReported != 2 {
		t.Errorf("HitsReported = %d, want 2", ps.HitsReported)
	}
	os := tb.origin.Stats()
	if os.HitReports != 2 {
		t.Errorf("origin HitReports = %d, want 2", os.HitReports)
	}
	// Two reports of one URL are one answer.
	if os.HitValidations != 1 || ps.HitValidations != 1 {
		t.Errorf("HitValidations: origin %d, proxy %d, want 1 and 1", os.HitValidations, ps.HitValidations)
	}
	// The report went out front-coded, the repeat as its length and a bar,
	// and was answered by index: "<crc32-hex>;0 1000 100", where 0 names
	// /a/x.html and the CRC-32 takes one to eight hex digits.
	if n := tb.proxy.Obs().Snapshot().Counter("proxy.list_bytes"); n != int64(len("/a/x.html,9|")) {
		t.Errorf("proxy.list_bytes = %d, want %d", n, len("/a/x.html,9|"))
	}
	if n, body := tb.origin.Obs().Snapshot().Counter("server.answer_bytes"), int64(len(";0 1000 100")); n < body+1 || n > body+8 {
		t.Errorf("server.answer_bytes = %d, want %d to %d", n, body+1, body+8)
	}
	// The server's volume saw 2 extra accesses for /a/x.html: with a
	// MinAccess filter of 3 it now passes (1 direct + 2 reported).
	m, ok := tb.origin.Volumes().Piggyback("/a/y.gif", tb.now, mustFilter(t, "minaccess=3"))
	if !ok {
		t.Fatal("no piggyback")
	}
	found := false
	for _, e := range m.Elements {
		if e.URL == "/a/x.html" {
			found = true
		}
	}
	if !found {
		t.Errorf("reported hits did not raise popularity: %+v", m.Elements)
	}

	// A path holding a comma cannot ride in a list: its fresh hit is
	// taken for the next report but left out of it, not counted as
	// reported, and counted as dropped.
	tb.store.Put(server.Resource{URL: "/a/p,q.html", Size: 100, LastModified: 1000})
	tb.get(t, "www.site.com/a/p,q.html") // miss
	if r := tb.get(t, "www.site.com/a/p,q.html"); r.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("X-Cache %q, want HIT", r.Header.Get("X-Cache"))
	}
	dropped := tb.proxy.Stats().HitsDropped
	tb.get(t, "www.site.com/a/big.pdf") // miss: its report is empty
	if n := tb.proxy.Stats().HitsReported; n != 2 {
		t.Errorf("HitsReported = %d after an unlistable hit, want 2", n)
	}
	if n := tb.origin.Stats().HitReports; n != 2 {
		t.Errorf("origin HitReports = %d after an unlistable hit, want 2", n)
	}
	if n := tb.proxy.Stats().HitsDropped - dropped; n != 1 {
		t.Errorf("proxy.hits_dropped moved by %d on an unlistable hit, want 1", n)
	}
}

// TestHitsPastHeaderBudgetGoBack: hits the 2,048-B Piggy-Hits budget
// leaves out return to the pending report, ahead of newer hits, and ride
// on the next request; a hit no list can carry is dropped and counted.
func TestHitsPastHeaderBudgetGoBack(t *testing.T) {
	p := New(Config{Clock: func() int64 { return 0 }, Resolve: func(string) (string, error) { return "", nil }})
	t.Cleanup(p.Close)
	long := func(i int) string { return fmt.Sprintf("/%02d/%s", i, strings.Repeat("x", 600)) }
	for i := 0; i < 5; i++ {
		p.hosts.add("h", long(i))
	}
	p.hosts.add("h", "/a,b")
	send := func() []string {
		req, sent, _ := p.originRequest(upstreamState{host: "h", path: "/self"}, false, 0)
		if got := httpwire.GetPaths(req, httpwire.FieldPiggyHits); !slices.Equal(got, sent) {
			t.Fatalf("sent %d hits, the header carries %d", len(sent), len(got))
		}
		return sent
	}
	// Three ~605-B paths fit the budget, newest first; the comma is dropped.
	if sent := send(); !slices.Equal(sent, []string{long(4), long(3), long(2)}) {
		t.Fatalf("first request reported %d hits, want the three newest", len(sent))
	}
	if n := p.Stats().HitsDropped; n != 1 {
		t.Errorf("HitsDropped = %d, want 1 (the unlistable hit)", n)
	}
	p.hosts.add("h", "/new")
	if sent := send(); !slices.Equal(sent, []string{"/new", long(1), long(0)}) {
		t.Errorf("second request reported %q..., want the new hit, then the two left out", sent[:1])
	}
	if s := p.Stats(); s.HitsReported != 6 || s.HitsDropped != 1 {
		t.Errorf("HitsReported %d, HitsDropped %d, want 6 and 1", s.HitsReported, s.HitsDropped)
	}
}

func TestProxyHitReportingOffWhenFilterDisabled(t *testing.T) {
	st := server.NewStore()
	st.Put(server.Resource{URL: "/a/x.html", Size: 100, LastModified: 1000})
	st.Put(server.Resource{URL: "/a/y.gif", Size: 50, LastModified: 1500})
	now := int64(10_000)
	origin := server.New(st, core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true}), func() int64 { return now })
	var withHits, withSince atomic.Int32
	addr := startOrigin(t, httpwire.HandlerFunc(func(ctx context.Context, req *httpwire.Request) *httpwire.Response {
		if req.Header.Has(httpwire.FieldPiggyHits) {
			withHits.Add(1)
		}
		if req.Header.Has(httpwire.FieldPiggySince) {
			withSince.Add(1)
		}
		return origin.ServeWire(ctx, req)
	}))
	p := New(Config{
		Delta:      600,
		BaseFilter: core.Filter{Disabled: true},
		Clock:      func() int64 { return now },
		Resolve:    func(string) (string, error) { return addr, nil },
	})
	t.Cleanup(p.Close)

	proxyGet(p, "www.site.com/a/x.html")
	now += 5
	if r := proxyGet(p, "www.site.com/a/x.html"); r.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("X-Cache %q, want HIT", r.Header.Get("X-Cache"))
	}
	now += 490
	proxyGet(p, "www.site.com/a/y.gif")
	if n := withHits.Load(); n != 0 {
		t.Errorf("%d upstream requests carried Piggy-Hits with the filter disabled", n)
	}
	if v, _ := p.cache.PeekView("www.site.com/a/y.gif"); withSince.Load() != 0 || v.Chain != 0 {
		t.Errorf("%d upstream requests carried Piggy-Since, a copy joined chain %d, with the filter disabled", withSince.Load(), v.Chain)
	}
	if s := p.Stats(); s.HitsReported != 0 || s.HitValidations != 0 {
		t.Errorf("HitsReported %d, HitValidations %d, want 0 and 0", s.HitsReported, s.HitValidations)
	}
}

const (
	otherPath = "/a/other.html"
	otherKey  = "www.site.com" + otherPath
)

// newAnswerBed is the seam bed with a second resource: a miss on otherKey
// carries the hit report for seamKey, and the origin (no volumes, so no
// P-Volume trailer) answers it in P-Valid2 alone.
func newAnswerBed(t *testing.T) *seamBed {
	t.Helper()
	sb := newSeamBed(t, Config{Delta: 600})
	sb.store.Put(server.Resource{URL: otherPath, Size: 100, LastModified: 1000})
	return sb
}

// TestHitReportAnswerFreshensUnchanged: an entry served from cache and
// reported is confirmed by the answer, which moves its expiry to the
// reporting request's now + Δ, so a request past its original expiry is a
// fresh hit — no validation.
func TestHitReportAnswerFreshensUnchanged(t *testing.T) {
	sb := newAnswerBed(t)
	t0 := sb.now.Load()
	sb.get(seamKey) // miss: expires t0+600
	sb.now.Store(t0 + 300)
	if r := sb.get(seamKey); r.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("X-Cache %q, want HIT", r.Header.Get("X-Cache"))
	}
	sb.now.Store(t0 + 400)
	before := sb.proxy.Stats()
	sb.get(otherKey) // carries the report; the answer names seamPath at LM 1000

	moved := statsMoved(before, sb.proxy.Stats())
	want := Stats{ClientRequests: 1, MissFetches: 1, HitsReported: 1, HitValidations: 1, Refreshes: 1}
	if moved != want {
		t.Errorf("counters moved %+v, want %+v", moved, want)
	}
	if v, ok := sb.proxy.cache.PeekView(seamKey); !ok || v.Expires != t0+400+600 {
		t.Fatalf("entry present %v, expires %d, want %d", ok, v.Expires, t0+400+600)
	}
	sb.now.Store(t0 + 700)
	r := sb.get(seamKey)
	if r.Header.Get("X-Cache") != "HIT" {
		t.Errorf("after the original expiry: X-Cache %q, want HIT", r.Header.Get("X-Cache"))
	}
	if s := sb.proxy.Stats(); s.Validations != 0 {
		t.Errorf("%d validations, want 0", s.Validations)
	}
}

// TestHitReportAnswerInvalidatesChanged: the answer names a newer version,
// so the cached copy goes and the next request fetches the new body, even
// though the old copy's Δ had not run out.
func TestHitReportAnswerInvalidatesChanged(t *testing.T) {
	sb := newAnswerBed(t)
	t0 := sb.now.Load()
	sb.get(seamKey)
	sb.now.Store(t0 + 300)
	sb.get(seamKey) // fresh hit, reported
	sb.store.Modify(seamPath, 5000, 0)
	sb.now.Store(t0 + 400)
	sb.get(otherKey)
	if s := sb.proxy.Stats(); s.HitValidations != 1 || s.Invalidations != 1 {
		t.Fatalf("HitValidations %d, Invalidations %d, want 1 and 1", s.HitValidations, s.Invalidations)
	}
	r := sb.get(seamKey)
	if lm, _ := r.LastModified(); r.Header.Get("X-Cache") != "MISS" || lm != 5000 {
		t.Errorf("X-Cache %q, Last-Modified %d, want MISS and 5000", r.Header.Get("X-Cache"), lm)
	}
}

// TestHitReportAnswerLeavesRPVUntouched: an answer names no volume, so the
// RPV list the host's record holds for the next request stays as it was.
func TestHitReportAnswerLeavesRPVUntouched(t *testing.T) {
	sb := newAnswerBed(t)
	sb.get(seamKey)
	sb.now.Add(10)
	sb.get(seamKey)
	sb.get(otherKey)
	if sb.proxy.Stats().HitValidations != 1 {
		t.Fatal("no answer applied")
	}
	if rpv := sb.proxy.hosts.take("www.site.com", sb.now.Load()).rpv; len(rpv) != 0 {
		t.Errorf("RPV list %v after an answer, want empty", rpv)
	}
}

// TestElementWithoutVersionIsSkipped: an element with Last-Modified 0 is
// older than any cached copy, so applying it would freshen whatever the
// cache holds; it neither freshens nor seeds a prefetch.
func TestElementWithoutVersionIsSkipped(t *testing.T) {
	p := New(Config{Delta: 600, Prefetch: true, Clock: func() int64 { return 10_000 },
		Resolve: func(string) (string, error) { return "", nil }})
	t.Cleanup(p.Close)
	p.cache.Put(cache.Entry{URL: "www.site.com/a/x.html", Size: 1, LastModified: 1000, Expires: 9_000, FetchedAt: 8_000}, 8_000)
	p.processPiggyback("www.site.com", core.Message{Volume: 1, Elements: []core.Element{
		{URL: "/a/x.html", Size: 0, LastModified: 0},
		{URL: "/a/new.html", Size: 0, LastModified: 0},
	}}, 10_000)
	if v, ok := p.cache.PeekView("www.site.com/a/x.html"); !ok || v.Expires != 9_000 {
		t.Errorf("entry present %v, expires %d: a versionless element freshened it", ok, v.Expires)
	}
	if n := p.Queue().Len(); n != 0 {
		t.Errorf("%d prefetches queued for a versionless element", n)
	}
	if s := p.Stats(); s.Refreshes != 0 || s.Invalidations != 0 {
		t.Errorf("Refreshes %d, Invalidations %d, want 0 and 0", s.Refreshes, s.Invalidations)
	}
}

func mustFilter(t *testing.T, s string) core.Filter {
	t.Helper()
	f, err := core.ParseFilter(s)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestAnswerForOtherListsIgnored is the contract of the P-Valid2 digest: an
// answer binds to the lists it indexes, so an answer computed for the same
// paths in another order — whose index 0 names another resource — changes
// nothing. The proxy holds an outdated copy of A and a current copy of B
// and reports a hit on each; an honest origin's answer invalidates A and
// refreshes B, while an answer to the reordered report, applied by
// position, would refresh A and invalidate B. The proxy applies neither.
func TestAnswerForOtherListsIgnored(t *testing.T) {
	const (
		host       = "www.site.com"
		pathA      = "/a/a.html"
		pathB      = "/a/b.html"
		keyA, keyB = host + pathA, host + pathB
	)
	for _, reorder := range []bool{false, true} {
		t.Run(fmt.Sprintf("reorder=%v", reorder), func(t *testing.T) {
			st := server.NewStore()
			for _, p := range []string{pathA, pathB, "/a/c.html"} {
				st.Put(server.Resource{URL: p, Size: 100, LastModified: 1000})
			}
			var now atomic.Int64
			now.Store(10_000)
			origin := server.New(st, nil, now.Load)
			addr := startOrigin(t, httpwire.HandlerFunc(func(ctx context.Context, req *httpwire.Request) *httpwire.Response {
				// No change list: P-Valid2 is the only channel that
				// can name A's new version.
				req.Header.Del(httpwire.FieldPiggySince)
				if reorder && req.Header.Has(httpwire.FieldPiggyHits) {
					// SetPaths writes last first: the decoded list goes
					// back on the wire reversed.
					httpwire.SetPaths(req, httpwire.FieldPiggyHits, httpwire.GetPaths(req, httpwire.FieldPiggyHits))
				}
				return origin.ServeWire(ctx, req)
			}))
			p := New(Config{Delta: 600, Clock: now.Load, Resolve: func(string) (string, error) { return addr, nil }})
			t.Cleanup(p.Close)

			proxyGet(p, keyA)
			proxyGet(p, keyB)
			now.Add(10)
			proxyGet(p, keyA) // fresh hits, reported on the next miss
			proxyGet(p, keyB)
			st.Modify(pathA, 5000, 0)
			now.Add(10)
			before, hitAnswers := p.Stats(), p.Obs().Snapshot().Counter("proxy.hit_validations")
			proxyGet(p, host+"/a/c.html")

			if n := origin.Stats().HitValidations; n != 2 {
				t.Fatalf("origin answered %d reported hits, want 2", n)
			}
			moved := statsMoved(before, p.Stats())
			hitAnswers = p.Obs().Snapshot().Counter("proxy.hit_validations") - hitAnswers
			_, okA := p.cache.PeekView(keyA)
			vB, okB := p.cache.PeekView(keyB)
			if !reorder {
				if moved.Invalidations != 1 || moved.Refreshes != 1 || hitAnswers != 2 || okA || !okB || vB.Expires != 10_020+600 {
					t.Fatalf("honest answer: moved %+v, proxy.hit_validations +%d, A cached %v, B cached %v expiring %d; want A invalidated, B refreshed",
						moved, hitAnswers, okA, okB, vB.Expires)
				}
				return
			}
			if moved.Invalidations != 0 || moved.Refreshes != 0 || hitAnswers != 0 || !okA || !okB || vB.Expires != 10_000+600 {
				t.Fatalf("answer to reordered lists: moved %+v, proxy.hit_validations +%d, A cached %v, B cached %v expiring %d; want nothing applied",
					moved, hitAnswers, okA, okB, vB.Expires)
			}
			if vA, _ := p.cache.PeekView(keyA); vA.LastModified != 1000 || vA.Expires != 10_000+600 {
				t.Errorf("A holds Last-Modified %d expiring %d, want 1000 expiring %d", vA.LastModified, vA.Expires, 10_000+600)
			}
		})
	}
}

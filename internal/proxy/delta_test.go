package proxy

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"piggyback/internal/cache"
	"piggyback/internal/core"
	"piggyback/internal/httpwire"
	"piggyback/internal/server"
)

// deltaTestbed uses a large resource so delta responses pay off.
func deltaTestbed(t *testing.T, deltaOn bool) *testbed {
	tb := newTestbed(t, Config{Delta: 600, DeltaEncoding: deltaOn})
	tb.store.Put(server.Resource{URL: "/a/big-page.html", Size: 16384, LastModified: 1000})
	return tb
}

func TestDeltaEncodingEndToEnd(t *testing.T) {
	tb := deltaTestbed(t, true)
	r1 := tb.get(t, "www.site.com/a/big-page.html")
	if r1.Status != 200 || len(r1.Body) != 16384 {
		t.Fatalf("initial fetch: %d, %d bytes", r1.Status, len(r1.Body))
	}

	// The resource changes; the stale validation should come back as a
	// small delta rather than a full body.
	tb.store.Modify("/a/big-page.html", 5000, 0)
	tb.now += 700
	r2 := tb.get(t, "www.site.com/a/big-page.html")
	if r2.Status != 200 {
		t.Fatalf("status = %d", r2.Status)
	}
	if len(r2.Body) != 16384 {
		t.Fatalf("reconstructed body = %d bytes, want 16384", len(r2.Body))
	}
	if lm, _ := r2.LastModified(); lm != 5000 {
		t.Errorf("Last-Modified = %d, want 5000", lm)
	}

	ps := tb.proxy.Stats()
	if ps.DeltaUpdates != 1 {
		t.Fatalf("DeltaUpdates = %d: %+v", ps.DeltaUpdates, ps)
	}
	if ps.DeltaBytesSaved <= 0 {
		t.Errorf("DeltaBytesSaved = %d", ps.DeltaBytesSaved)
	}
	os := tb.origin.Stats()
	if os.DeltasSent != 1 || os.DeltaBytesSaved <= 0 {
		t.Errorf("origin delta stats: %+v", os)
	}

	// The reconstructed body must be byte-identical to a fresh fetch.
	tb.now += 700
	tb.store.Modify("/a/big-page.html", 5000, 0) // no-op, keeps LM
	fresh := tb.get(t, "www.site.com/a/big-page.html")
	if string(fresh.Body) != string(r2.Body) {
		t.Error("reconstructed body differs from origin content")
	}
}

func TestDeltaEncodingOffByDefault(t *testing.T) {
	tb := deltaTestbed(t, false)
	tb.get(t, "www.site.com/a/big-page.html")
	tb.store.Modify("/a/big-page.html", 5000, 0)
	tb.now += 700
	r := tb.get(t, "www.site.com/a/big-page.html")
	if r.Status != 200 || len(r.Body) != 16384 {
		t.Fatalf("full fetch expected: %d, %d bytes", r.Status, len(r.Body))
	}
	if tb.proxy.Stats().DeltaUpdates != 0 || tb.origin.Stats().DeltasSent != 0 {
		t.Error("delta path active without DeltaEncoding")
	}
}

func TestDeltaFallsBackOnSmallResources(t *testing.T) {
	// For a tiny resource the patch (header + whole changed block) is
	// not smaller than the body: the server must send a plain 200.
	tb := newTestbed(t, Config{Delta: 600, DeltaEncoding: true})
	tb.get(t, "www.site.com/a/x.html") // 100 bytes
	tb.store.Modify("/a/x.html", 5000, 0)
	tb.now += 700
	r := tb.get(t, "www.site.com/a/x.html")
	if r.Status != 200 || len(r.Body) != 100 {
		t.Fatalf("fallback fetch: %d, %d bytes", r.Status, len(r.Body))
	}
	if tb.origin.Stats().DeltasSent != 0 {
		t.Error("delta sent although not profitable")
	}
}

func TestDeltaValidationStillWorksUnchanged(t *testing.T) {
	// Unchanged resource + A-IM: the 304 path must be unaffected.
	tb := deltaTestbed(t, true)
	tb.get(t, "www.site.com/a/big-page.html")
	tb.now += 700
	r := tb.get(t, "www.site.com/a/big-page.html")
	if r.Status != 200 {
		t.Fatalf("status = %d", r.Status)
	}
	ps := tb.proxy.Stats()
	if ps.NotModified != 1 || ps.DeltaUpdates != 0 {
		t.Errorf("stats = %+v", ps)
	}
}

// TestCorruptDeltaRefetchesWholeBody: a 226 whose patch does not apply
// must not leave the client, or the cache, with the version the origin has
// just said is outdated — whether the patch was against a stale copy or a
// delta base, and whether a client miss or a prefetch asked for it. The
// proxy drops its copy and asks again without a condition in the same
// fetch, so the next request cannot fail the same way.
func TestCorruptDeltaRefetchesWholeBody(t *testing.T) {
	for _, tc := range []struct {
		name           string
		base, prefetch bool
	}{{"stale copy", false, false}, {"delta base", true, false}, {"delta base, prefetched", true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			sb := newSeamBed(t, Config{Delta: 600, DeltaEncoding: true, Prefetch: tc.prefetch})
			old := sb.get(seamKey)
			sb.store.Modify(seamPath, 5000, 0)
			if tc.base {
				sb.now.Add(10)
				sb.invalidate(5000)
			} else {
				sb.now.Add(700)
			}
			sb.mode.Store(originCorrupt)
			sb.requests()

			xcache := "MISS"
			if tc.prefetch {
				xcache = "HIT"
				if n := sb.proxy.DrainPrefetchesContext(context.Background(), 10); n != 1 {
					t.Fatalf("drained %d prefetches, want 1", n)
				}
			}
			r := sb.get(seamKey)
			if r.Status != 200 || r.Header.Get("X-Cache") != xcache {
				t.Fatalf("answer %d %s, want 200 %s", r.Status, r.Header.Get("X-Cache"), xcache)
			}
			if lm, _ := r.LastModified(); lm != 5000 || string(r.Body) == string(old.Body) {
				t.Fatalf("served Last-Modified %d (body changed: %v), want the new version",
					lm, string(r.Body) != string(old.Body))
			}
			if ps := sb.proxy.Stats(); ps.UpstreamErrors != 1 || ps.DeltaUpdates != 0 {
				t.Errorf("UpstreamErrors %d DeltaUpdates %d, want 1 and 0", ps.UpstreamErrors, ps.DeltaUpdates)
			}
			ims := old.Header.Get("Last-Modified")
			if asked := sb.requests(); !slices.Equal(asked, []string{ims + "|blockdiff", "|"}) {
				t.Errorf("origin asked %q, want a patch against %q, then the whole body", asked, ims)
			}

			sb.now.Add(10)
			again := sb.get(seamKey)
			if again.Header.Get("X-Cache") != "HIT" || string(again.Body) != string(r.Body) {
				t.Errorf("next request: X-Cache %s, same body %v; want a fresh hit on the new version",
					again.Header.Get("X-Cache"), string(again.Body) == string(r.Body))
			}
		})
	}
}

// originBody is what the seam bed's origin serves for seamPath now.
func originBody(t *testing.T, sb *seamBed) []byte {
	t.Helper()
	req := httpwire.NewRequest("GET", seamPath)
	req.Header.Set("Host", "www.site.com")
	resp := sb.origin.ServeWire(context.Background(), req)
	if resp.Status != 200 {
		t.Fatalf("origin: %d", resp.Status)
	}
	return resp.Body
}

// TestDeltaBaseRefetchIsOnePatch: a copy a piggyback invalidated stays as a
// delta base, so the request that refetches it — a client's miss or a
// prefetch — is one origin exchange, conditional on the base's version and
// asking for a patch, and the patched body is byte for byte the origin's.
// The refetch counts as a miss fetch (or a prefetch), not a validation.
func TestDeltaBaseRefetchIsOnePatch(t *testing.T) {
	for _, prefetch := range []bool{false, true} {
		t.Run(map[bool]string{false: "client miss", true: "prefetch"}[prefetch], func(t *testing.T) {
			sb := newSeamBed(t, Config{Delta: 600, DeltaEncoding: true, Prefetch: prefetch})
			old := sb.get(seamKey)
			sb.store.Modify(seamPath, 5000, 0)
			sb.now.Add(10)
			sb.invalidate(5000)
			if v, ok := sb.proxy.cache.PeekView(seamKey); ok || !v.Outdated {
				t.Fatalf("after the invalidation the cache holds %v %+v, want a delta base", ok, v)
			}
			sb.requests()

			if prefetch {
				if n := sb.proxy.DrainPrefetchesContext(context.Background(), 10); n != 1 {
					t.Fatalf("drained %d prefetches, want 1", n)
				}
			}
			r := sb.get(seamKey)
			ims := old.Header.Get("Last-Modified")
			if asked := sb.requests(); !slices.Equal(asked, []string{ims + "|blockdiff"}) {
				t.Errorf("origin asked %q, want one patch against %q", asked, ims)
			}
			if lm, _ := r.LastModified(); r.Status != 200 || lm != 5000 || !bytes.Equal(r.Body, originBody(t, sb)) {
				t.Errorf("served %d, Last-Modified %d, %d bytes; want 200 and the origin's version 5000 byte for byte",
					r.Status, lm, len(r.Body))
			}

			want := Stats{ClientRequests: 2, MissFetches: 2, Invalidations: 1, DeltaUpdates: 1}
			if prefetch {
				if r.Header.Get("X-Cache") != "HIT" {
					t.Errorf("X-Cache %q after the drain, want HIT", r.Header.Get("X-Cache"))
				}
				want.MissFetches, want.FreshHits, want.Prefetches, want.UsefulPrefetches = 1, 1, 1, 1
			}
			got := sb.proxy.Stats()
			got.DeltaBytesSaved = 0
			if got != want {
				t.Errorf("counters %+v, want %+v", got, want)
			}
			if n := sb.proxy.Obs().Snapshot().Counter("proxy.delta_base_refetches"); n != 1 {
				t.Errorf("proxy.delta_base_refetches = %d, want 1", n)
			}
		})
	}
}

// TestDeltaBase304NeverReachesAClient: an origin that answers a request
// conditional on a delta base with 304 has called the base current, but a
// base is never served. The flight's leader — a client miss or a prefetch —
// asks again, unconditionally, and every client, the one waiting on the
// flight included, gets the new version: never the base, a 304 or a 226.
func TestDeltaBase304NeverReachesAClient(t *testing.T) {
	for _, prefetch := range []bool{false, true} {
		t.Run(map[bool]string{false: "client miss", true: "prefetch"}[prefetch], func(t *testing.T) {
			const key = "www.base.test/page.html"
			var mu sync.Mutex
			var asked []string
			leaderIn := make(chan struct{}, 1)
			release := make(chan struct{})
			origin := startOrigin(t, httpwire.HandlerFunc(func(_ context.Context, req *httpwire.Request) *httpwire.Response {
				ims := req.Header.Get("If-Modified-Since")
				mu.Lock()
				asked = append(asked, ims)
				version := int64(5000)
				if len(asked) == 1 {
					version = 1000
				}
				mu.Unlock()
				if ims != "" {
					leaderIn <- struct{}{}
					<-release
					return httpwire.NewResponse(304)
				}
				resp := httpwire.NewResponse(200)
				resp.Body = []byte(fmt.Sprint("version ", version))
				resp.Header.Set("Last-Modified", httpwire.FormatHTTPDate(version))
				return resp
			}))
			p := New(Config{
				Delta:         600,
				DeltaEncoding: true,
				Prefetch:      prefetch,
				Clock:         func() int64 { return 10_000 },
				Resolve:       func(string) (string, error) { return origin, nil },
			})
			defer p.Close()

			if r := proxyGet(p, key); string(r.Body) != "version 1000" {
				t.Fatalf("priming fetch: %d %q", r.Status, r.Body)
			}
			// Queues the prefetch when prefetching is on.
			p.applyElement("www.base.test", core.Element{URL: "/page.html", LastModified: 5000}, 10_000, viaVolume)

			results := make(chan *httpwire.Response, 2)
			drained := make(chan int, 1)
			if prefetch {
				go func() { drained <- p.DrainPrefetchesContext(context.Background(), 1) }()
			} else {
				go func() { results <- proxyGet(p, key) }()
			}
			select {
			case <-leaderIn:
			case r := <-results:
				t.Fatalf("the base's refetch sent no conditional request: %d %q", r.Status, r.Body)
			case n := <-drained:
				t.Fatalf("the drain fetched %d without a conditional request", n)
			}
			go func() { results <- proxyGet(p, key) }()
			time.Sleep(20 * time.Millisecond) // let the follower reach the flight
			close(release)

			xcache := map[string]int{}
			clients := 2
			if prefetch {
				clients = 1
				if n := <-drained; n != 1 {
					t.Errorf("drained %d prefetches, want 1", n)
				}
			}
			for i := 0; i < clients; i++ {
				r := <-results
				if lm, _ := r.LastModified(); r.Status != 200 || lm != 5000 || string(r.Body) != "version 5000" {
					t.Errorf("client got %d, Last-Modified %d, %q; want 200 and version 5000", r.Status, lm, r.Body)
				}
				xcache[r.Header.Get("X-Cache")]++
			}
			if xcache["MISS"] != clients-1 || xcache["SHARED"] != 1 {
				t.Errorf("X-Cache %v, want %d MISS and one SHARED", xcache, clients-1)
			}
			mu.Lock()
			defer mu.Unlock()
			if ims := httpwire.FormatHTTPDate(1000); !slices.Equal(asked, []string{"", ims, ""}) {
				t.Errorf("origin asked %q, want the priming GET, one conditional on %q, then one plain", asked, ims)
			}
			s := p.Stats()
			if s.MissFetches+s.Prefetches != 2 || s.Validations != 0 || s.NotModified != 0 || s.SingleflightShared != 1 {
				t.Errorf("MissFetches %d Prefetches %d Validations %d NotModified %d SingleflightShared %d, want 2 fetches, 0, 0, 1",
					s.MissFetches, s.Prefetches, s.Validations, s.NotModified, s.SingleflightShared)
			}
		})
	}
}

// TestDeltaOffDeletesInvalidatedCopy: without delta encoding a base would
// never be patched, so an invalidated copy is deleted at once and the next
// request is a plain GET.
func TestDeltaOffDeletesInvalidatedCopy(t *testing.T) {
	sb := newSeamBed(t, Config{Delta: 600})
	sb.get(seamKey)
	sb.store.Modify(seamPath, 5000, 0)
	sb.now.Add(10)
	sb.invalidate(5000)
	if v, ok := sb.proxy.cache.PeekView(seamKey); ok || v.Outdated || sb.proxy.cache.(*cache.Sharded).Len() != 0 {
		t.Fatalf("after the invalidation the cache holds %v %+v (%d keys), want nothing", ok, v, sb.proxy.cache.(*cache.Sharded).Len())
	}
	sb.requests()
	if r := sb.get(seamKey); !bytes.Equal(r.Body, originBody(t, sb)) {
		t.Errorf("served %d bytes, not the origin's version", len(r.Body))
	}
	if asked := sb.requests(); !slices.Equal(asked, []string{"|"}) {
		t.Errorf("origin asked %q, want one plain GET", asked)
	}
	if n := sb.proxy.Obs().Snapshot().Counter("proxy.delta_base_refetches"); n != 0 {
		t.Errorf("proxy.delta_base_refetches = %d, want 0", n)
	}
}

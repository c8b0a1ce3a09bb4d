package proxy

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"piggyback/internal/core"
	"piggyback/internal/httpwire"
	"piggyback/internal/server"
)

// How the seam bed's origin treats a request.
const (
	originHonest    int32 = iota // the real server's answer
	originCorrupt                // a 226 goes out with its patch cut short
	originHangs                  // no answer until the caller gives up
	originDeltaOnly              // originCorrupt for A-IM requests, originHangs for the rest
	originValidates              // a 304 to every conditional request, whatever the version
)

const (
	seamPath = "/a/big-page.html"
	seamKey  = "www.site.com" + seamPath
)

// seamBed is a proxy, driven directly through ServeWire, in front of a real
// origin server (no volumes, one resource large enough for deltas to pay
// off) whose answers the test can corrupt or withhold. It keeps the
// condition of every request the origin receives.
type seamBed struct {
	now    atomic.Int64
	mode   atomic.Int32
	store  *server.Store
	origin *server.Server
	proxy  *Proxy

	mu    sync.Mutex
	asked []string // per origin request: "If-Modified-Since|A-IM", "|" for a plain GET
}

func newSeamBed(t *testing.T, cfg Config) *seamBed {
	t.Helper()
	sb := &seamBed{store: server.NewStore()}
	sb.now.Store(10000)
	sb.store.Put(server.Resource{URL: seamPath, Size: 16384, LastModified: 1000})
	origin := server.New(sb.store, nil, sb.now.Load)
	sb.origin = origin
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	addr := startOrigin(t, httpwire.HandlerFunc(func(ctx context.Context, req *httpwire.Request) *httpwire.Response {
		sb.mu.Lock()
		sb.asked = append(sb.asked, req.Header.Get("If-Modified-Since")+"|"+req.Header.Get("A-IM"))
		sb.mu.Unlock()
		mode := sb.mode.Load()
		if mode == originDeltaOnly {
			mode = originHangs
			if req.Header.Get("A-IM") != "" {
				mode = originCorrupt
			}
		}
		switch mode {
		case originValidates:
			if req.Header.Get("If-Modified-Since") != "" {
				return httpwire.NewResponse(304)
			}
		case originHangs:
			select {
			case <-ctx.Done():
			case <-stop:
			}
			return httpwire.NewResponse(503)
		case originCorrupt:
			resp := origin.ServeWire(ctx, req)
			if resp.Status == 226 {
				resp.Body = resp.Body[:len(resp.Body)/2]
			}
			return resp
		}
		return origin.ServeWire(ctx, req)
	}))
	cfg.Clock = sb.now.Load
	cfg.Resolve = func(string) (string, error) { return addr, nil }
	sb.proxy = New(cfg)
	t.Cleanup(sb.proxy.Close)
	return sb
}

func (sb *seamBed) get(url string) *httpwire.Response { return proxyGet(sb.proxy, url) }

// requests returns the conditions of the origin requests made so far and
// forgets them.
func (sb *seamBed) requests() []string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	asked := sb.asked
	sb.asked = nil
	return asked
}

// invalidate applies a piggyback element naming version lm of seamPath, as
// a P-Volume trailer or an answer to a hit report would.
func (sb *seamBed) invalidate(lm int64) {
	sb.proxy.applyElement("www.site.com", core.Element{URL: seamPath, Size: 16384, LastModified: lm}, sb.now.Load(), viaVolume)
}

// statsMoved returns after − before, field by field.
func statsMoved(before, after Stats) Stats {
	var d Stats
	b, a, dv := reflect.ValueOf(before), reflect.ValueOf(after), reflect.ValueOf(&d).Elem()
	for i := 0; i < dv.NumField(); i++ {
		dv.Field(i).SetInt(a.Field(i).Int() - b.Field(i).Int())
	}
	return d
}

// TestFetchOutcomes pins the miss path one outcome at a time: what the
// client is told, which counters the request moves (and that no other
// does), and what the cache holds afterwards.
func TestFetchOutcomes(t *testing.T) {
	const (
		oldLM, newLM = 1000, 5000
		// What the cache holds for seamKey after the request.
		freshNew = "fresh copy of the new version"
		freshOld = "fresh copy of the old version"
		staleOld = "expired copy of the old version"
		baseOld  = "delta base of the old version"
		nothing  = ""
	)
	cases := []struct {
		name string
		cfg  Config
		// primed: the key was fetched once and its copy expired 100 s
		// ago; modified: the origin's copy changed in between;
		// invalidated: a piggyback element then named the new version.
		primed, modified, invalidated bool
		// reported: a fresh hit on the primed copy, before it expired, is
		// waiting to ride upstream in Piggy-Hits.
		reported bool
		// tripped: an earlier failure has opened the host's circuit.
		tripped bool
		// maxStale, when set, replaces the serve-stale bound
		// maxStaleOnError (3600 s).
		maxStale int64
		origin   int32

		status int
		xcache string
		lm     int64 // Last-Modified served; 0 when no body is
		moved  Stats // ClientRequests aside
		cached string
	}{
		{name: "200 miss", origin: originHonest,
			status: 200, xcache: "MISS", lm: oldLM, moved: Stats{MissFetches: 1}, cached: freshOld},
		{name: "200 on validation", primed: true, modified: true, origin: originHonest,
			status: 200, xcache: "MISS", lm: newLM, moved: Stats{Validations: 1}, cached: freshNew},
		{name: "304", primed: true, origin: originHonest,
			status: 200, xcache: "MISS", lm: oldLM, moved: Stats{Validations: 1, NotModified: 1}, cached: freshOld},
		{name: "304 answering a hit report", primed: true, reported: true, origin: originHonest,
			status: 200, xcache: "MISS", lm: oldLM,
			moved: Stats{Validations: 1, NotModified: 1, HitsReported: 1, HitValidations: 1, Refreshes: 1}, cached: freshOld},
		{name: "200 answering a hit report", primed: true, reported: true, modified: true, origin: originHonest,
			status: 200, xcache: "MISS", lm: newLM,
			moved: Stats{Validations: 1, HitsReported: 1, HitValidations: 1, Refreshes: 1}, cached: freshNew},
		{name: "226 good", cfg: Config{DeltaEncoding: true}, primed: true, modified: true, origin: originHonest,
			status: 200, xcache: "MISS", lm: newLM,
			moved: Stats{Validations: 1, DeltaUpdates: 1, DeltaBytesSaved: 1}, cached: freshNew},
		{name: "226 corrupt", cfg: Config{DeltaEncoding: true}, primed: true, modified: true, origin: originCorrupt,
			status: 200, xcache: "MISS", lm: newLM,
			moved: Stats{UpstreamErrors: 1, Validations: 1}, cached: freshNew},
		{name: "226 corrupt, then timeout", cfg: Config{DeltaEncoding: true}, primed: true, modified: true, origin: originDeltaOnly,
			status: 200, xcache: "STALE", lm: oldLM,
			moved: Stats{UpstreamErrors: 2, StaleServes: 1}, cached: nothing},
		{name: "timeout, stale copy inside MaxStaleOnError", primed: true, origin: originHangs,
			status: 200, xcache: "STALE", lm: oldLM,
			moved: Stats{UpstreamErrors: 1, StaleServes: 1}, cached: staleOld},
		{name: "timeout, stale copy too old", maxStale: 60, primed: true, origin: originHangs,
			status: 504, moved: Stats{UpstreamErrors: 1}, cached: staleOld},
		{name: "226 on a delta base", cfg: Config{DeltaEncoding: true}, primed: true, modified: true, invalidated: true, origin: originHonest,
			status: 200, xcache: "MISS", lm: newLM,
			moved: Stats{MissFetches: 1, DeltaUpdates: 1, DeltaBytesSaved: 1}, cached: freshNew},
		{name: "226 corrupt on a delta base", cfg: Config{DeltaEncoding: true}, primed: true, modified: true, invalidated: true, origin: originCorrupt,
			status: 200, xcache: "MISS", lm: newLM,
			moved: Stats{UpstreamErrors: 1, MissFetches: 1}, cached: freshNew},
		{name: "304 to a delta base", cfg: Config{DeltaEncoding: true}, primed: true, modified: true, invalidated: true, origin: originValidates,
			status: 200, xcache: "MISS", lm: newLM,
			moved: Stats{MissFetches: 1}, cached: freshNew},
		{name: "timeout, delta base inside MaxStaleOnError", cfg: Config{DeltaEncoding: true}, primed: true, modified: true, invalidated: true, origin: originHangs,
			status: 504, moved: Stats{UpstreamErrors: 1}, cached: baseOld},
		{name: "200 after an invalidation, deltas off", primed: true, modified: true, invalidated: true, origin: originHonest,
			status: 200, xcache: "MISS", lm: newLM, moved: Stats{MissFetches: 1}, cached: freshNew},
		{name: "open circuit",
			primed: true, tripped: true, origin: originHonest,
			status: 200, xcache: "STALE", lm: oldLM,
			moved: Stats{StaleServes: 1, BreakerShortCircuits: 1}, cached: staleOld},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Delta = 600
			sb := newSeamBed(t, cfg)
			timeoutAfter(sb.proxy, 100*time.Millisecond)
			if tc.maxStale != 0 {
				sb.proxy.maxStale = tc.maxStale
			}
			if tc.primed {
				if r := sb.get(seamKey); r.Status != 200 {
					t.Fatalf("priming fetch: %d", r.Status)
				}
				if tc.reported {
					if r := sb.get(seamKey); r.Header.Get("X-Cache") != "HIT" {
						t.Fatalf("reported hit: X-Cache %q", r.Header.Get("X-Cache"))
					}
				}
				sb.now.Add(700)
			}
			if tc.modified {
				sb.store.Modify(seamPath, newLM, 0)
			}
			if tc.invalidated {
				sb.invalidate(newLM)
			}
			if tc.tripped {
				tripAfter(sb.proxy, 1, time.Hour)
				sb.mode.Store(originHangs)
				if r := sb.get("www.site.com/a/other.html"); r.Status != 504 {
					t.Fatalf("tripping fetch: %d", r.Status)
				}
			}
			sb.mode.Store(tc.origin)
			before := sb.proxy.Stats()
			resp := sb.get(seamKey)

			if resp.Status != tc.status || resp.Header.Get("X-Cache") != tc.xcache {
				t.Errorf("answer %d %q, want %d %q", resp.Status, resp.Header.Get("X-Cache"), tc.status, tc.xcache)
			}
			if lm, _ := resp.LastModified(); lm != tc.lm {
				t.Errorf("served Last-Modified %d, want %d", lm, tc.lm)
			}
			if tc.lm != 0 && len(resp.Body) != 16384 {
				t.Errorf("served %d bytes, want 16384", len(resp.Body))
			}
			if stale := resp.Header.Get("Warning") != ""; stale != (tc.xcache == "STALE") {
				t.Errorf("Warning %q on X-Cache %q", resp.Header.Get("Warning"), tc.xcache)
			}

			moved := statsMoved(before, sb.proxy.Stats())
			if moved.DeltaBytesSaved > 0 {
				moved.DeltaBytesSaved = 1 // how many is the delta package's business
			}
			want := tc.moved
			want.ClientRequests = 1
			if moved != want {
				t.Errorf("counters moved %+v, want %+v", moved, want)
			}

			v, ok := sb.proxy.cache.PeekView(seamKey)
			now := sb.now.Load()
			holds := nothing
			switch {
			case ok && v.Fresh(now) && v.LastModified == newLM:
				holds = freshNew
			case ok && v.Fresh(now) && v.LastModified == oldLM:
				holds = freshOld
			case ok && v.LastModified == oldLM:
				holds = staleOld
			case v.Outdated && v.LastModified == oldLM:
				holds = baseOld
			}
			if holds != tc.cached {
				t.Errorf("cache holds %q (present %v, LM %d, expires %d, now %d), want %q",
					holds, ok, v.LastModified, v.Expires, now, tc.cached)
			}
		})
	}
}

// TestEveryAdmittedVersionFeedsFreshness pins the one intended behaviour
// change of routing every cache fill through admit: a prefetched body and a
// peer-served body reach the freshness estimator, as a fetched one always
// did. Piggybacking is off so nothing else can have told the estimator.
func TestEveryAdmittedVersionFeedsFreshness(t *testing.T) {
	quiet := Config{Delta: 600, AdaptiveFreshness: true, BaseFilter: core.Filter{Disabled: true}}

	t.Run("prefetch", func(t *testing.T) {
		tb := newTestbed(t, quiet)
		tb.proxy.Queue().Push(FetchItem{Host: "www.site.com", URL: "/a/x.html", Size: 100})
		if n := tb.proxy.DrainPrefetchesContext(context.Background(), 1); n != 1 {
			t.Fatalf("drained %d prefetches, want 1", n)
		}
		if got := tb.proxy.fresh.tracked(); got != 1 {
			t.Errorf("estimator tracks %d resources after a prefetch, want 1", got)
		}
	})

	t.Run("peer", func(t *testing.T) {
		f := newFleet(t, 2, quiet)
		const key = "www.site.com/a/x.html"
		r := 1 - f.ownerIndex(t, key)
		if resp := f.get(t, r, key); resp.Header.Get("X-Cache") != "PEER" {
			t.Fatalf("X-Cache %q, want PEER", resp.Header.Get("X-Cache"))
		}
		if got := f.px[r].fresh.tracked(); got != 1 {
			t.Errorf("estimator tracks %d resources after a peer-served response, want 1", got)
		}
	})
}

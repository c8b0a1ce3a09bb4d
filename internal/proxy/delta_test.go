package proxy

import (
	"testing"

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
// just said is outdated. The proxy drops its copy and asks again without
// A-IM in the same request, so the next validation cannot fail the same
// way.
func TestCorruptDeltaRefetchesWholeBody(t *testing.T) {
	sb := newSeamBed(t, Config{Delta: 600, DeltaEncoding: true})
	old := sb.get(seamKey)
	sb.store.Modify(seamPath, 5000, 0)
	sb.now.Add(700)
	sb.mode.Store(originCorrupt)

	r := sb.get(seamKey)
	if r.Status != 200 || r.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("answer %d %s, want 200 MISS", r.Status, r.Header.Get("X-Cache"))
	}
	if lm, _ := r.LastModified(); lm != 5000 || string(r.Body) == string(old.Body) {
		t.Fatalf("served Last-Modified %d (body changed: %v), want the new version",
			lm, string(r.Body) != string(old.Body))
	}
	if ps := sb.proxy.Stats(); ps.UpstreamErrors != 1 || ps.DeltaUpdates != 0 {
		t.Errorf("UpstreamErrors %d DeltaUpdates %d, want 1 and 0", ps.UpstreamErrors, ps.DeltaUpdates)
	}

	sb.now.Add(10)
	again := sb.get(seamKey)
	if again.Header.Get("X-Cache") != "HIT" || string(again.Body) != string(r.Body) {
		t.Errorf("next request: X-Cache %s, same body %v; want a fresh hit on the new version",
			again.Header.Get("X-Cache"), string(again.Body) == string(r.Body))
	}
}

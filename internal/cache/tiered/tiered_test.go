package tiered

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"piggyback/internal/cache"
	"piggyback/internal/obs"
)

// newTiered builds a single-shard tiered store over dir (capacity small
// enough that tests can force evictions deterministically).
func newTiered(t testing.TB, dir string, ramBytes int64, cfg Config) *Tiered {
	t.Helper()
	cfg.Dir = dir
	if cfg.logf == nil {
		cfg.logf = t.Logf
	}
	ts, err := New(cache.NewSharded(ramBytes, 1, nil), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func entry(url string, size int64, now int64) cache.Entry {
	return cache.Entry{
		URL: url, Size: size, LastModified: now - 100, Expires: now + 300,
		FetchedAt: now, Body: []byte(strings.Repeat(url, int(size)/len(url)+1))[:size],
		ContentType: "text/html", LastModifiedHTTP: "Mon, 01 Jan 2024 00:00:00 GMT",
	}
}

// evictAll empties a single-shard RAM tier through the eviction path: an
// entry as large as the tier displaces everything, then is deleted (a
// delete is never demoted).
func evictAll(ts *Tiered, now int64) {
	const filler = "http://o/filler"
	ts.Put(cache.Entry{URL: filler, Size: ts.ram.Capacity(), Expires: now}, now)
	ts.Delete(filler)
}

// TestTieredDemotePromote: an entry with utility (a hit) demotes on
// eviction; a later lookup promotes a copy from disk without data loss and
// keeps the record, so the key counts once, survives an eviction the gate
// refuses, and goes back to disk unchanged as an index update.
func TestTieredDemotePromote(t *testing.T) {
	ts := newTiered(t, t.TempDir(), 1<<10, Config{})
	defer ts.Close()
	now := int64(1000)

	a := entry("http://o/a", 600, now)
	ts.Put(a, now)
	if _, ok := ts.Lookup("http://o/a", now); !ok { // utility: one hit
		t.Fatal("a not cached")
	}
	ts.Put(entry("http://o/b", 600, now), now) // evicts a
	if got := ts.Stats().Demotions; got != 1 {
		t.Fatalf("want 1 demotion, got %d", got)
	}
	if !ts.Contains("http://o/a") {
		t.Fatal("a should be disk-resident after demotion")
	}
	written := ts.Stats().DiskBytes
	v, ok := ts.Lookup("http://o/a", now+1) // evicts b: never hit, not demoted
	if !ok {
		t.Fatal("disk-resident a should be servable")
	}
	if string(v.Body) != string(a.Body) || v.ContentType != a.ContentType ||
		v.LastModified != a.LastModified || v.LastModifiedHTTP != a.LastModifiedHTTP {
		t.Fatalf("promoted view diverged: %+v", v)
	}
	st := ts.Stats()
	if st.DiskHits != 1 || st.Promotions != 1 {
		t.Fatalf("want 1 disk hit / 1 promotion, got %d/%d", st.DiskHits, st.Promotions)
	}
	if !ts.ram.Contains("http://o/a") || !ts.diskContains("http://o/a") {
		t.Fatal("a promoted entry should be in RAM and keep its record")
	}
	if ts.Len() != 1 || ts.Used() != a.Size {
		t.Fatalf("a key in both tiers counts once: Len %d Used %d, want 1 and %d", ts.Len(), ts.Used(), a.Size)
	}

	// Evicted before a second hit, the promoted copy fails the gate — and
	// the object is still on disk.
	ts.Put(entry("http://o/c", 600, now), now)
	if st := ts.Stats(); st.Demotions != 1 || st.CleanDemotions != 0 {
		t.Fatalf("gated eviction reached the disk tier: %+v", st)
	}
	if _, ok := ts.Lookup("http://o/a", now+2); !ok {
		t.Fatal("a promoted entry evicted without a hit was forgotten")
	}

	// Hit and freshened in RAM, then evicted: a clean demotion writes
	// nothing and hands the record the RAM copy's expiration.
	ts.Lookup("http://o/a", now+3)
	ts.Freshen("http://o/a", now+900)
	ts.Put(entry("http://o/d", 600, now), now)
	st = ts.Stats()
	if st.Demotions != 1 || st.CleanDemotions != 1 || st.DiskBytes != written {
		t.Fatalf("want a clean re-demotion and %d disk bytes, got %+v", written, st)
	}
	v, ok = ts.PeekView("http://o/a")
	if !ok || v.Expires != now+900 || string(v.Body) != string(a.Body) {
		t.Fatalf("re-demoted record: ok=%v expires %d, want %d", ok, v.Expires, now+900)
	}
}

// TestTieredDemoteGate: the policy-informed gate spills only entries the
// replacement machinery saw utility in — a never-hit, never-hinted entry
// is dropped, not written to disk.
func TestTieredDemoteGate(t *testing.T) {
	ts := newTiered(t, t.TempDir(), 1<<10, Config{})
	defer ts.Close()
	now := int64(1000)

	ts.Put(entry("http://o/cold", 600, now), now) // no hit, no hint
	ts.Put(entry("http://o/warm", 600, now), now) // evicts cold
	ts.Lookup("http://o/warm", now)               // utility for warm
	ts.Put(entry("http://o/next", 600, now), now) // evicts warm
	if ts.Contains("http://o/cold") {
		t.Fatal("cold entry (no utility) must not demote")
	}
	if !ts.Contains("http://o/warm") {
		t.Fatal("warm entry (hit) must demote")
	}
	st := ts.Stats()
	if st.Demotions != 1 {
		t.Fatalf("want exactly 1 demotion, got %d", st.Demotions)
	}
}

// TestTieredStatsFold is the satellite-3 regression: hit/miss accounting
// behind the Store interface counts each logical lookup exactly once —
// a disk hit is one hit, not a RAM miss plus a disk hit, and the
// hit-rate arithmetic stays consistent.
func TestTieredStatsFold(t *testing.T) {
	ts := newTiered(t, t.TempDir(), 1<<10, Config{})
	defer ts.Close()
	now := int64(1000)
	lookups := int64(0)

	ts.Put(entry("http://o/a", 600, now), now)
	ts.Lookup("http://o/a", now) // RAM hit
	lookups++
	ts.Put(entry("http://o/b", 600, now), now) // evicts + demotes a
	ts.Lookup("http://o/a", now)               // disk hit
	lookups++
	ts.Lookup("http://o/missing", now) // miss
	lookups++
	ts.Lookup("http://o/a", now) // RAM hit again (promoted)
	lookups++

	st := ts.Stats()
	if st.Hits+st.Misses != lookups {
		t.Fatalf("lookup accounting double-counts: hits %d + misses %d != %d lookups",
			st.Hits, st.Misses, lookups)
	}
	if st.Hits != 3 || st.Misses != 1 || st.DiskHits != 1 {
		t.Fatalf("want hits/misses/diskHits 3/1/1, got %d/%d/%d", st.Hits, st.Misses, st.DiskHits)
	}
	if want := 0.75; st.HitRate() != want {
		t.Fatalf("hit rate %v, want %v", st.HitRate(), want)
	}
}

// TestTieredRestartWarm: Close flushes the RAM working set and snapshots
// the index; a new store over the same directory serves every entry from
// disk without any origin involvement.
func TestTieredRestartWarm(t *testing.T) {
	dir := t.TempDir()
	now := int64(1000)
	const n = 20

	ts := newTiered(t, dir, 1<<20, Config{})
	bodies := make(map[string]string)
	for i := 0; i < n; i++ {
		url := fmt.Sprintf("http://o/r%02d", i)
		e := entry(url, 512, now)
		ts.Put(e, now)
		bodies[url] = string(e.Body)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}

	re := newTiered(t, dir, 1<<20, Config{})
	defer re.Close()
	if got := re.Len(); got != n {
		t.Fatalf("reopened store indexes %d entries, want %d", got, n)
	}
	for url, body := range bodies {
		v, ok := re.Lookup(url, now+10)
		if !ok || string(v.Body) != body {
			t.Fatalf("restart-warm lookup of %s failed: ok=%v", url, ok)
		}
	}
	st := re.Stats()
	if st.DiskHits != n || st.Hits != n || st.Misses != 0 {
		t.Fatalf("warm restart stats: diskHits=%d hits=%d misses=%d, want %d/%d/0",
			st.DiskHits, st.Hits, st.Misses, n, n)
	}
}

// TestTieredRestartFreshness: piggyback freshening of a disk-resident
// entry survives the snapshot (the index owns freshness, not the record).
func TestTieredRestartFreshness(t *testing.T) {
	dir := t.TempDir()
	now := int64(1000)
	ts := newTiered(t, dir, 1<<10, Config{})
	ts.Put(entry("http://o/a", 600, now), now)
	ts.Lookup("http://o/a", now)
	ts.Put(entry("http://o/b", 600, now), now) // demote a
	if got := ts.ApplyPiggyback("http://o/a", now-100, now+9999, now+9999, now); got != cache.PiggybackRefreshed {
		t.Fatalf("disk-resident refresh: got %v", got)
	}
	// Invalidation of a disk-resident copy deletes it.
	ts.Lookup("http://o/b", now)
	ts.Put(entry("http://o/c", 600, now), now) // demote b
	if got := ts.ApplyPiggyback("http://o/b", now+500, now, now, now); got != cache.PiggybackInvalidated {
		t.Fatalf("disk-resident invalidation: got %v", got)
	}
	if ts.Contains("http://o/b") {
		t.Fatal("invalidated disk entry still present")
	}
	ts.Close()

	re := newTiered(t, dir, 1<<10, Config{})
	defer re.Close()
	v, ok := re.PeekView("http://o/a")
	if !ok || v.Expires != now+9999 {
		t.Fatalf("freshened expiry lost across restart: %+v %v", v, ok)
	}
}

// TestTieredCloseReusesRecord: Close flushes the RAM working set through
// the demotion path, so a promoted entry whose expiration moved in RAM
// updates its indexed record instead of appending a second one.
func TestTieredCloseReusesRecord(t *testing.T) {
	dir := t.TempDir()
	now := int64(1000)
	ts := newTiered(t, dir, 1<<10, Config{})
	ts.Put(entry("http://o/a", 600, now), now)
	ts.Lookup("http://o/a", now)
	ts.Put(entry("http://o/b", 600, now), now) // demotes a
	ts.Lookup("http://o/a", now)               // promotes a, evicting b for good
	ts.Freshen("http://o/a", now+900)
	written := ts.Stats().DiskBytes
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}

	re := newTiered(t, dir, 1<<10, Config{})
	defer re.Close()
	if got := re.Stats().DiskBytes; got != written {
		t.Fatalf("Close grew the disk tier from %d to %d bytes for an unchanged entry", written, got)
	}
	if v, ok := re.PeekView("http://o/a"); !ok || v.Expires != now+900 {
		t.Fatalf("freshened expiry lost across Close: %+v %v", v, ok)
	}
}

// TestTieredCompaction: promotion leaves a sealed segment whole; replacing,
// deleting and invalidating most of its records leaves holes, and
// maintenance rewrites the survivors and reclaims the space.
func TestTieredCompaction(t *testing.T) {
	// Tiny segments (four records each) so a handful of records spans
	// several files.
	ts := newTiered(t, t.TempDir(), 1<<10, Config{segmentBytes: 3000})
	defer ts.Close()
	now := int64(1000)
	const n = 16
	url := func(i int) string { return fmt.Sprintf("http://o/r%02d", i) }
	for i := 0; i < n; i++ {
		ts.Put(entry(url(i), 600, now), now)
		ts.Lookup(url(i), now) // utility so eviction demotes
	}
	for i := 0; i < n-1; i++ { // the first evicts and demotes r15
		ts.Lookup(url(i), now+int64(i))
	}
	before := ts.Stats()
	if before.Demotions != n || before.Promotions != n-1 {
		t.Fatalf("want %d demotions and %d promotions, got %+v", n, n-1, before)
	}
	if before.Compactions != 0 {
		t.Fatalf("promotion punched holes: %+v", before)
	}
	for i := 0; i < n; i++ {
		if !ts.diskContains(url(i)) {
			t.Fatalf("%s lost its record", url(i))
		}
	}

	// Three of every four records die, one way each; r14 is also in RAM.
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 1:
			if got := ts.ApplyPiggyback(url(i), now+500, now, now, now); got != cache.PiggybackInvalidated {
				t.Fatalf("invalidating %s: got %v", url(i), got)
			}
		case 2:
			if !ts.Delete(url(i)) {
				t.Fatalf("%s not deleted", url(i))
			}
		case 3:
			ts.Put(entry(url(i), 600, now+500), now+500)
		}
	}
	if st := ts.Stats(); st.Compactions != 0 || st.Demotions != n {
		t.Fatalf("maintenance ran with no record written: %+v", st)
	}
	// Maintenance runs after a demotion that writes a record.
	ts.Put(entry("http://o/last", 600, now), now)
	ts.Lookup("http://o/last", now)
	evictAll(ts, now)
	st := ts.Stats()
	if st.Compactions == 0 || st.DiskBytes >= before.DiskBytes {
		t.Fatalf("holes were not reclaimed: before %+v after %+v", before, st)
	}
	for i := 0; i < n; i++ {
		v, ok := ts.PeekView(url(i))
		switch {
		case i%4 == 0:
			if want := entry(url(i), 600, now); !ok || string(v.Body) != string(want.Body) || v.LastModified != want.LastModified {
				t.Fatalf("%s did not survive compaction: ok=%v", url(i), ok)
			}
		case ok && v.LastModified == now-100:
			t.Fatalf("%s still serves the version that was replaced", url(i))
		}
	}
}

// TestTieredDiskCapacity: the disk footprint stays bounded; overflow
// drops whole oldest segments.
func TestTieredDiskCapacity(t *testing.T) {
	ts := newTiered(t, t.TempDir(), 1<<10, Config{segmentBytes: 2048, DiskBytes: 8 << 10})
	defer ts.Close()
	now := int64(1000)
	for i := 0; i < 64; i++ {
		url := fmt.Sprintf("http://o/r%03d", i)
		ts.Put(entry(url, 600, now), now)
		ts.Lookup(url, now)
	}
	st := ts.Stats()
	if st.DiskBytes > 8<<10 {
		t.Fatalf("disk footprint %d exceeds cap %d", st.DiskBytes, 8<<10)
	}
	if st.Demotions < 32 {
		t.Fatalf("expected sustained demotions, got %d", st.Demotions)
	}
}

// TestTieredInstrument: the cache.tier.* counters mirror the internal
// atomics, including when re-instrumented into a fresh registry (the
// restart path re-uses the store with a new proxy).
func TestTieredInstrument(t *testing.T) {
	ts := newTiered(t, t.TempDir(), 1<<10, Config{})
	defer ts.Close()
	now := int64(1000)
	ts.Put(entry("http://o/a", 600, now), now)
	ts.Lookup("http://o/a", now)
	ts.Put(entry("http://o/b", 600, now), now)
	ts.Lookup("http://o/a", now) // disk hit + promotion
	ts.Lookup("http://o/a", now) // utility again

	reg := obs.NewRegistry()
	ts.Instrument(reg, "cache")
	snap := reg.Snapshot()
	st := ts.Stats()
	for name, want := range map[string]int64{
		"cache.tier.demotions":  st.Demotions,
		"cache.tier.promotions": st.Promotions,
		"cache.tier.disk_bytes": st.DiskBytes,
	} {
		if got := snap.Counter(name); got != want {
			t.Fatalf("%s = %d, want %d (stats %+v)", name, got, want, st)
		}
	}
	// Re-instrument into a second registry: counters must resync, and
	// live increments must land in the new one.
	reg2 := obs.NewRegistry()
	ts.Instrument(reg2, "cache")
	ts.Put(entry("http://o/c", 600, now), now) // evicts a (hit above): a clean demotion
	snap = reg2.Snapshot()
	if got, want := snap.Counter("cache.tier.demotions"), ts.Stats().Demotions; got != want {
		t.Fatalf("re-instrumented demotions = %d, want %d", got, want)
	}
	if got := snap.Counter("cache.tier.demote_clean"); got != 1 || ts.Stats().CleanDemotions != 1 {
		t.Fatalf("demote_clean = %d, stats %+v, want 1", got, ts.Stats())
	}
}

// TestTieredStartsNoGoroutines: demotion, maintenance and promotion run
// inside the operations that cause them, so a disk-backed store runs no
// goroutine of its own, open or closed.
func TestTieredStartsNoGoroutines(t *testing.T) {
	start := runtime.NumGoroutine()
	ts := newTiered(t, t.TempDir(), 1<<10, Config{segmentBytes: 3000})
	now := int64(1000)
	url := func(i int) string { return fmt.Sprintf("http://o/r%02d", i) }
	for i := 0; i < 16; i++ {
		ts.Put(entry(url(i), 600, now), now)
		ts.Lookup(url(i), now) // a hit: the next insert demotes it
	}
	for i := 0; i < 16; i++ {
		if i%4 == 0 {
			ts.Lookup(url(i), now) // a promotion
		} else {
			ts.Delete(url(i)) // a hole
		}
	}
	ts.Put(entry("http://o/last", 600, now), now)
	ts.Lookup("http://o/last", now)
	evictAll(ts, now) // a written demotion: maintenance compacts the holes
	if st := ts.Stats(); st.Demotions == 0 || st.Promotions == 0 || st.Compactions == 0 {
		t.Fatalf("the store was not driven through the disk tier: %+v", st)
	}
	if n := runtime.NumGoroutine(); n > start {
		t.Fatalf("%d goroutines with the store open, %d before it", n, start)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > start {
		t.Fatalf("%d goroutines after Close, %d before the store", n, start)
	}
}

// TestTieredRequiresDir: a Tiered store always has a disk tier; New
// refuses an empty segment directory.
func TestTieredRequiresDir(t *testing.T) {
	if ts, err := New(cache.NewSharded(1<<10, 1, nil), Config{}); err == nil || ts != nil {
		t.Fatalf("New with no Dir = %v, %v; want an error", ts, err)
	}
}

// TestTieredDifferential drives the plain Cache, a shards==1 Sharded, and
// a Tiered whose disk tier admits no record (DiskBytes 1: every demotion
// is refused) through one randomized op sequence via the cache.Store
// interface and asserts identical observable behaviour at every step. The
// Tiered arm takes its disk branches on every miss, Put, Delete and
// piggyback element, so this checks that a disk tier holding nothing is
// transparent.
func TestTieredDifferential(t *testing.T) {
	const capacity = 4 << 10
	plain := cache.New(capacity, cache.PiggybackLRU{})
	sharded := cache.NewSharded(capacity, 1, nil)
	tiered := newTiered(t, t.TempDir(), capacity, Config{DiskBytes: 1})
	defer tiered.Close()
	stores := []struct {
		name string
		s    interface {
			cache.Store
			Used() int64
			Len() int
		}
	}{{"plain", plain}, {"sharded", sharded}, {"tiered-nodisk", tiered}}

	rng := rand.New(rand.NewSource(99))
	now := int64(1000)
	for step := 0; step < 3000; step++ {
		now++
		url := fmt.Sprintf("http://o/u%02d", rng.Intn(40))
		// Draw the op and its parameters once, apply to all three stores.
		op := rng.Intn(105)
		size := int64(64 + rng.Intn(capacity/4))
		lm := now - int64(rng.Intn(500))
		exp := now + int64(rng.Intn(400))
		pre := rng.Intn(4) == 0
		var outs [3]string
		for i, st := range stores {
			switch {
			case op < 40:
				e := cache.Entry{URL: url, Size: size, LastModified: lm,
					Expires: exp, FetchedAt: now, Body: []byte(url),
					ContentType: "text/html", Prefetched: pre}
				outs[i] = fmt.Sprint(st.s.Put(e, now))
			case op < 65:
				v, ok := st.s.Lookup(url, now)
				outs[i] = fmt.Sprint(ok, v.Expires, v.WasPrefetched, v.Outdated, v.LastModified, string(v.Body))
			case op < 72:
				outs[i] = fmt.Sprint(st.s.Freshen(url, exp))
			case op < 79:
				outs[i] = fmt.Sprint(st.s.Hint(url, exp, now))
			case op < 84:
				outs[i] = fmt.Sprint(st.s.Pin(url, exp, now))
			case op < 89:
				outs[i] = fmt.Sprint(st.s.Delete(url))
			case op < 94:
				v, ok := st.s.PeekView(url)
				outs[i] = fmt.Sprint(ok, v.Expires, v.Outdated, string(v.Body), st.s.Contains(url))
			case op < 100:
				outs[i] = fmt.Sprint(st.s.ApplyPiggyback(url, lm, now+300, now+600, now))
			default: // invalidate (every Put's version is older than now+1), then look up
				out := st.s.ApplyPiggyback(url, now+1, now+300, now+600, now)
				v, ok := st.s.Lookup(url, now)
				outs[i] = fmt.Sprint(out, ok, v.Outdated, v.LastModified, string(v.Body))
			}
		}
		for i := 1; i < 3; i++ {
			if outs[i] != outs[0] {
				t.Fatalf("step %d: %s diverged from plain: %q vs %q",
					step, stores[i].name, outs[i], outs[0])
			}
		}
		s0, si := stores[0].s.Stats(), stores[1].s.Stats()
		st2 := stores[2].s.Stats()
		if s0 != si || s0 != st2 {
			t.Fatalf("step %d: stats diverged: plain %+v sharded %+v tiered %+v", step, s0, si, st2)
		}
		if stores[0].s.Used() != stores[1].s.Used() || stores[0].s.Used() != stores[2].s.Used() ||
			stores[0].s.Len() != stores[1].s.Len() || stores[0].s.Len() != stores[2].s.Len() {
			t.Fatalf("step %d: occupancy diverged", step)
		}
	}
	st := stores[0].s.Stats()
	if st.Hits == 0 || st.Evictions == 0 {
		t.Fatalf("sequence exercised no hits (%d) or evictions (%d) — test is vacuous", st.Hits, st.Evictions)
	}
}

// TestTieredCloseIdempotent: double Close must not panic or double-flush.
func TestTieredCloseIdempotent(t *testing.T) {
	ts := newTiered(t, t.TempDir(), 1<<10, Config{})
	ts.Put(entry("http://o/a", 100, 1000), 1000)
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTieredSnapshotAtomic: a crash during snapshot write (simulated by a
// leftover .tmp) must not shadow the real snapshot.
func TestTieredSnapshotAtomic(t *testing.T) {
	dir := t.TempDir()
	now := int64(1000)
	ts := newTiered(t, dir, 1<<20, Config{})
	ts.Put(entry("http://o/a", 512, now), now)
	ts.Close()
	if err := os.WriteFile(filepath.Join(dir, "index.snap.tmp"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	re := newTiered(t, dir, 1<<20, Config{})
	defer re.Close()
	if _, ok := re.Lookup("http://o/a", now); !ok {
		t.Fatal("leftover snapshot temp file broke the restart")
	}
}

// TestTieredEvictionThenInvalidation: an eviction is on disk before the
// insert that caused it returns, so a delete, a newer Put or a piggyback
// naming a newer version that follows it finds the record and drops it —
// the old version is never served fresh from disk. A piggyback naming the
// same version leaves it servable.
func TestTieredEvictionThenInvalidation(t *testing.T) {
	const url = "http://o/a"
	now := int64(1000)
	a := entry(url, 600, now)
	cases := []struct {
		name       string
		invalidate func(t *testing.T, ts *Tiered)
		kept       bool // the evicted version is still good and must be served
	}{
		{"delete", func(t *testing.T, ts *Tiered) {
			if !ts.Delete(url) {
				t.Error("Delete found nothing")
			}
		}, false},
		{"put", func(t *testing.T, ts *Tiered) {
			newer := entry(url, 600, now+50)
			ts.Put(newer, now)
			// Out of RAM again without a demotion, so that only a record
			// could answer.
			ts.ram.Delete(url)
		}, false},
		{"piggyback names a newer version", func(t *testing.T, ts *Tiered) {
			if out := ts.ApplyPiggyback(url, a.LastModified+1, now+600, now+600, now); out != cache.PiggybackInvalidated {
				t.Errorf("ApplyPiggyback = %v, want %v: the record is on disk", out, cache.PiggybackInvalidated)
			}
		}, false},
		{"piggyback names the same version", func(t *testing.T, ts *Tiered) {
			ts.ApplyPiggyback(url, a.LastModified, now+600, now+600, now)
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := newTiered(t, t.TempDir(), 1<<10, Config{})
			defer ts.Close()
			ts.Put(a, now)
			if _, ok := ts.Lookup(url, now); !ok { // utility: the gate passes
				t.Fatal("a not cached")
			}
			ts.Put(entry("http://o/b", 600, now), now) // evicts a
			if st := ts.Stats(); st.Demotions != 1 {
				t.Fatalf("the eviction wrote %d records, want a's", st.Demotions)
			}
			tc.invalidate(t, ts)
			v, ok := ts.Lookup(url, now)
			if ok != tc.kept || ok && v.LastModified != a.LastModified {
				t.Fatalf("Lookup after %s: hit=%v (lm %d), want hit=%v", tc.name, ok, v.LastModified, tc.kept)
			}
		})
	}
}

// TestTieredPromotionIsOneStep: a promotion reads the record and inserts
// its copy into RAM in one t.mu section, so another operation on the key is
// wholly before it or wholly after it. Each case starts that operation on
// its own goroutine from inside the promotion (the promoting hook, between
// the read and the insert) and lets it run for up to 50 ms there: where the
// section is not one step it completes in that window, and the insert then
// brings back the version it removed. Where it is, the operation waits for
// t.mu — a piggyback after its RAM half has missed — and must still leave
// no trace of the old version once it is done.
func TestTieredPromotionIsOneStep(t *testing.T) {
	const url = "http://o/a"
	now := int64(1000)
	old, newer := entry(url, 600, now), entry(url, 600, now+50)
	for _, tc := range []struct {
		name   string
		op     func(t *testing.T, ts *Tiered)
		wantLM int64 // what the next Lookup serves; 0: a miss
	}{
		{"piggyback names a newer version", func(t *testing.T, ts *Tiered) {
			if out := ts.ApplyPiggyback(url, old.LastModified+1, now+600, now+600, now); out != cache.PiggybackInvalidated {
				t.Errorf("ApplyPiggyback = %v, want %v", out, cache.PiggybackInvalidated)
			}
		}, 0},
		{"put", func(t *testing.T, ts *Tiered) { ts.Put(newer, now) }, newer.LastModified},
		{"delete", func(t *testing.T, ts *Tiered) {
			if !ts.Delete(url) {
				t.Error("Delete found nothing")
			}
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := newTiered(t, t.TempDir(), 1<<10, Config{})
			defer ts.Close()
			ts.Put(old, now)
			ts.Lookup(url, now) // utility: the gate passes
			evictAll(ts, now)
			done := make(chan struct{})
			ts.promoting = func() {
				ts.promoting = nil
				go func() {
					defer close(done)
					tc.op(t, ts)
				}()
				select {
				case <-done:
				case <-time.After(50 * time.Millisecond):
				}
			}
			if v, ok := ts.Lookup(url, now); !ok || v.LastModified != old.LastModified {
				t.Fatalf("promotion: hit=%v lm %d, want lm %d", ok, v.LastModified, old.LastModified)
			}
			<-done
			v, ok := ts.Lookup(url, now)
			if !ok {
				v.LastModified = 0
			}
			if v.LastModified != tc.wantLM {
				t.Fatalf("Lookup after %s: hit=%v lm %d, want lm %d (0: a miss)", tc.name, ok, v.LastModified, tc.wantLM)
			}
		})
	}
}

// TestTieredPrefetchReportedOnceAcrossRestart: a promoted prefetched record
// keeps its mark on disk, and only the in-memory reported bit stops a second
// report. A reopened store starts every record reported, so the prefetch
// reported before the restart is not reported again — nor is the one never
// touched: a restart may lose a report but never doubles one.
func TestTieredPrefetchReportedOnceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	now := int64(1000)
	const touched, untouched = "http://o/touched", "http://o/untouched"
	reported := func(ts *Tiered, url string) bool {
		t.Helper()
		v, ok := ts.Lookup(url, now)
		if !ok {
			t.Fatalf("%s is not cached", url)
		}
		evictAll(ts, now) // the copy has no hit: the gate refuses it, the record stays
		return v.WasPrefetched
	}
	ts := newTiered(t, dir, 1<<10, Config{})
	for _, url := range []string{touched, untouched} {
		e := entry(url, 600, now)
		e.Prefetched = true
		ts.Put(e, now)
		evictAll(ts, now) // the mark passes the gate
	}
	if !reported(ts, touched) {
		t.Fatal("the first promotion did not report the prefetch")
	}
	if reported(ts, touched) {
		t.Fatal("the second promotion reported the prefetch again")
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}

	re := newTiered(t, dir, 1<<10, Config{})
	defer re.Close()
	for _, url := range []string{touched, untouched} {
		if reported(re, url) {
			t.Fatalf("%s: the prefetch was reported after the restart", url)
		}
	}
	if st := re.Stats(); st.Demotions != 0 || st.DiskHits != 2 {
		t.Fatalf("reopened store: %+v, want 2 disk hits and nothing written", st)
	}
}

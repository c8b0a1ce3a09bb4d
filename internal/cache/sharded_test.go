package cache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"piggyback/internal/obs"
)

// compareState deep-compares the reference Cache against the single shard
// of a shards==1 Sharded: every entry field that influences observable
// behaviour or future eviction decisions must match exactly.
func compareState(t *testing.T, step int, ref *Cache, s *Sharded) {
	t.Helper()
	sc := s.shards[0].c
	if ref.Len() != sc.Len() || ref.Used() != sc.Used() {
		t.Fatalf("step %d: len/used diverged: ref %d/%d sharded %d/%d",
			step, ref.Len(), ref.Used(), sc.Len(), sc.Used())
	}
	if rs, ss := ref.Stats(), s.Stats(); rs != ss {
		t.Fatalf("step %d: stats diverged: ref %+v sharded %+v", step, rs, ss)
	}
	for url, re := range ref.entries {
		se, ok := sc.entries[url]
		if !ok {
			t.Fatalf("step %d: %s cached in reference, missing in sharded", step, url)
		}
		if re.Size != se.Size || re.LastModified != se.LastModified ||
			re.Expires != se.Expires || re.FetchedAt != se.FetchedAt ||
			re.ContentType != se.ContentType || re.Prefetched != se.Prefetched ||
			re.lastAccess != se.lastAccess || re.hits != se.hits ||
			re.pinnedUntil != se.pinnedUntil || re.hintCount != se.hintCount ||
			re.priority != se.priority {
			t.Fatalf("step %d: entry %s diverged:\nref     %+v\nsharded %+v", step, url, *re, *se)
		}
		if string(re.Body) != string(se.Body) {
			t.Fatalf("step %d: entry %s body diverged", step, url)
		}
	}
	for url := range sc.entries {
		if _, ok := ref.entries[url]; !ok {
			t.Fatalf("step %d: %s cached in sharded, missing in reference", step, url)
		}
	}
}

// TestShardedDifferential drives a shards==1 Sharded and a plain Cache with
// one randomized op sequence (Put/Lookup/Freshen/Hint/Pin/Delete/piggyback,
// with capacity pressure forcing evictions) and asserts identical
// observable state after every step, for every built-in policy.
func TestShardedDifferential(t *testing.T) {
	policies := []struct {
		name  string
		ref   func() Policy
		proto Policy
	}{
		{"piggyback-lru", func() Policy { return PiggybackLRU{} }, PiggybackLRU{}},
		{"lru", func() Policy { return LRU{} }, LRU{}},
		{"lfu", func() Policy { return LFU{} }, LFU{}},
		{"gdsize", func() Policy { return &GDSize{} }, &GDSize{}},
		{"server-gd", func() Policy { return &ServerGD{} }, &ServerGD{}},
	}
	const capacity = 4 << 10
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			ref := New(capacity, pol.ref())
			s := NewSharded(capacity, 1, PolicyFactory(pol.proto))
			if s.ShardCount() != 1 {
				t.Fatalf("want 1 shard, got %d", s.ShardCount())
			}
			now := int64(1000)
			for step := 0; step < 4000; step++ {
				now++
				url := fmt.Sprintf("http://o/u%02d", rng.Intn(40))
				switch op := rng.Intn(100); {
				case op < 40: // Put, sizes large enough to force evictions
					size := int64(64 + rng.Intn(int(capacity/4)))
					e := Entry{
						URL:          url,
						Size:         size,
						LastModified: now - int64(rng.Intn(500)),
						Expires:      now + int64(rng.Intn(300)),
						FetchedAt:    now,
						Body:         []byte(url),
						ContentType:  "text/html",
						Prefetched:   rng.Intn(4) == 0,
					}
					ev1 := ref.Put(e, now)
					ev2 := s.Put(e, now)
					if fmt.Sprint(ev1) != fmt.Sprint(ev2) {
						t.Fatalf("step %d: evicted diverged: ref %v sharded %v", step, ev1, ev2)
					}
				case op < 65: // Lookup
					v1, ok1 := ref.Lookup(url, now)
					v2, ok2 := s.Lookup(url, now)
					if ok1 != ok2 || v1.Expires != v2.Expires ||
						v1.WasPrefetched != v2.WasPrefetched ||
						v1.ContentType != v2.ContentType ||
						string(v1.Body) != string(v2.Body) {
						t.Fatalf("step %d: lookup diverged: %v/%+v vs %v/%+v", step, ok1, v1, ok2, v2)
					}
				case op < 75: // Freshen
					exp := now + int64(rng.Intn(400))
					if ref.Freshen(url, exp) != s.Freshen(url, exp) {
						t.Fatalf("step %d: freshen diverged", step)
					}
				case op < 85: // Hint
					until := now + int64(rng.Intn(400))
					if ref.Hint(url, until, now) != s.Hint(url, until, now) {
						t.Fatalf("step %d: hint diverged", step)
					}
				case op < 90: // Pin
					until := now + int64(rng.Intn(400))
					if ref.Pin(url, until, now) != s.Pin(url, until, now) {
						t.Fatalf("step %d: pin diverged", step)
					}
				case op < 95: // Delete
					if ref.Delete(url) != s.Delete(url) {
						t.Fatalf("step %d: delete diverged", step)
					}
				default: // piggyback element
					lm := now - int64(rng.Intn(600))
					o1 := ref.ApplyPiggyback(url, lm, now+300, now+600, now)
					o2 := s.ApplyPiggyback(url, lm, now+300, now+600, now)
					if o1 != o2 {
						t.Fatalf("step %d: piggyback outcome diverged: %v vs %v", step, o1, o2)
					}
				}
				compareState(t, step, ref, s)
			}
			if ref.Hits == 0 || ref.Evictions == 0 {
				t.Fatalf("sequence exercised no hits (%d) or evictions (%d) — test is vacuous",
					ref.Hits, ref.Evictions)
			}
		})
	}
}

// TestShardedInvariants churns a multi-shard cache and checks the
// partition invariants: per-shard occupancy within the shard's capacity
// slice, aggregate accounting consistent, and every URL stored in the
// shard its hash selects.
func TestShardedInvariants(t *testing.T) {
	const capacity = 1 << 20 // 8 shards x 128 KiB
	s := NewSharded(capacity, 8, nil)
	if s.ShardCount() != 8 {
		t.Fatalf("want 8 shards, got %d", s.ShardCount())
	}
	rng := rand.New(rand.NewSource(7))
	now := int64(0)
	for i := 0; i < 5000; i++ {
		now++
		url := fmt.Sprintf("http://o/res%03d", rng.Intn(300))
		switch rng.Intn(4) {
		case 0, 1:
			s.Put(Entry{URL: url, Size: int64(1 + rng.Intn(8<<10)), Expires: now + 100, Body: []byte(url)}, now)
		case 2:
			s.Lookup(url, now)
		default:
			s.Delete(url)
		}
	}
	var used int64
	var n int
	for i := range s.shards {
		sh := &s.shards[i]
		if sh.c.Used() > sh.c.Capacity() {
			t.Fatalf("shard %d over capacity: %d > %d", i, sh.c.Used(), sh.c.Capacity())
		}
		var shardUsed int64
		for url, e := range sh.c.entries {
			if int(fnv1a(url)&s.mask) != i {
				t.Fatalf("url %s stored in shard %d, hashes to %d", url, i, fnv1a(url)&s.mask)
			}
			shardUsed += e.Size
		}
		if shardUsed != sh.c.Used() {
			t.Fatalf("shard %d used accounting off: sum %d, Used %d", i, shardUsed, sh.c.Used())
		}
		used += shardUsed
		n += sh.c.Len()
	}
	if used != s.Used() || n != s.Len() {
		t.Fatalf("aggregate accounting off: %d/%d vs %d/%d", used, n, s.Used(), s.Len())
	}
	var totalCap int64
	for i := range s.shards {
		totalCap += s.shards[i].c.Capacity()
	}
	if totalCap != capacity {
		t.Fatalf("partitioned capacity %d != configured %d", totalCap, capacity)
	}
	if s.Stats().Evictions == 0 {
		t.Fatal("churn produced no evictions — test is vacuous")
	}
}

// TestShardedConcurrentHammer hammers one Sharded from many goroutines
// with the full op mix (run under -race); afterwards the atomic aggregate
// stats must equal the sum of per-goroutine observations.
func TestShardedConcurrentHammer(t *testing.T) {
	const (
		workers = 8
		opsEach = 3000
		keys    = 200
	)
	s := NewSharded(1<<20, 8, PolicyFactory(&GDSize{}))
	reg := obs.NewRegistry()
	s.Instrument(reg, "cache")
	var wg sync.WaitGroup
	hits := make([]int, workers)
	misses := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsEach; i++ {
				now := int64(i)
				url := fmt.Sprintf("http://o/res%03d", rng.Intn(keys))
				switch rng.Intn(10) {
				case 0, 1, 2:
					s.Put(Entry{URL: url, Size: int64(1 + rng.Intn(4<<10)), Expires: now + 50, Body: []byte(url), ContentType: "text/plain"}, now)
				case 3, 4, 5, 6:
					if _, ok := s.Lookup(url, now); ok {
						hits[w]++
					} else {
						misses[w]++
					}
				case 7:
					s.ApplyPiggyback(url, now-10, now+50, now+100, now)
				case 8:
					s.Freshen(url, now+20)
				default:
					s.Delete(url)
				}
			}
		}(w)
	}
	wg.Wait()
	var wantHits, wantMisses int
	for w := 0; w < workers; w++ {
		wantHits += hits[w]
		wantMisses += misses[w]
	}
	if st := s.Stats(); st.Hits != int64(wantHits) || st.Misses != int64(wantMisses) {
		t.Fatalf("aggregate stats lost updates: got %d/%d, want %d/%d",
			st.Hits, st.Misses, wantHits, wantMisses)
	}
	if wantHits == 0 {
		t.Fatal("hammer produced no hits — test is vacuous")
	}
	// Gauges settle to the true occupancy once mutations stop.
	snap := reg.Snapshot()
	var gaugeBytes, gaugeEntries int64
	for i := range s.shards {
		gaugeBytes += snap.Counter(fmt.Sprintf("cache.shard%02d.bytes", i))
		gaugeEntries += snap.Counter(fmt.Sprintf("cache.shard%02d.entries", i))
	}
	if gaugeBytes != s.Used() || gaugeEntries != int64(s.Len()) {
		t.Fatalf("occupancy gauges drifted: %d/%d vs %d/%d",
			gaugeBytes, gaugeEntries, s.Used(), s.Len())
	}
	if got, want := snap.Counter("cache.evictions"), s.Stats().Evictions; got != want {
		t.Fatalf("eviction gauge %d != evictions %d", got, want)
	}
}

// TestShardedCapacityClamp verifies tiny caches degrade to fewer shards
// rather than making ordinary objects uncachable.
func TestShardedCapacityClamp(t *testing.T) {
	if got := NewSharded(150, 8, nil).ShardCount(); got != 1 {
		t.Fatalf("150-byte cache should collapse to 1 shard, got %d", got)
	}
	if got := NewSharded(1<<20, 8, nil).ShardCount(); got != 8 {
		t.Fatalf("1 MiB cache should keep 8 shards, got %d", got)
	}
	if got := NewSharded(1<<20, 5, nil).ShardCount(); got != 8 {
		t.Fatalf("shards should round up to a power of two, got %d", got)
	}
	// A 150-byte single-shard cache must still hold a 100-byte object —
	// the behaviour TestProxyEvictionUnderPressure depends on.
	s := NewSharded(150, 8, nil)
	s.Put(Entry{URL: "http://o/x", Size: 100, Expires: 10, Body: make([]byte, 100)}, 0)
	if !s.Contains("http://o/x") {
		t.Fatal("100-byte object uncachable in 150-byte cache")
	}
	d := DefaultShards()
	if d < 1 || d&(d-1) != 0 {
		t.Fatalf("DefaultShards not a power of two: %d", d)
	}
}

// TestPolicyFactoryInstances checks the sharing rules: stateless policies
// shared, stateful ones cloned per shard, unknown implementations wrapped
// once behind a shared lock.
func TestPolicyFactoryInstances(t *testing.T) {
	f := PolicyFactory(LRU{})
	if f() != f() {
		t.Fatal("LRU instances should be shared")
	}
	g := PolicyFactory(&GDSize{})
	a, b := g().(*GDSize), g().(*GDSize)
	if a == b {
		t.Fatal("GDSize instances must be independent per shard")
	}
	// Aging one instance must not age the other.
	e := &Entry{URL: "u", Size: 10, priority: 5}
	a.OnEvict(e)
	if a.L() == 0 || b.L() != 0 {
		t.Fatalf("GDSize aging leaked across instances: a.L=%v b.L=%v", a.L(), b.L())
	}
	u := PolicyFactory(custom{})
	lp1, ok1 := u().(*lockedPolicy)
	lp2, ok2 := u().(*lockedPolicy)
	if !ok1 || !ok2 || lp1 != lp2 {
		t.Fatal("unknown policy should be one shared lockedPolicy")
	}
	if lp1.Name() != "custom" {
		t.Fatalf("lockedPolicy should delegate Name, got %q", lp1.Name())
	}
	if PolicyFactory(nil) != nil {
		t.Fatal("nil prototype should map to nil factory (default policy)")
	}
}

type custom struct{}

func (custom) Name() string                         { return "custom" }
func (custom) Priority(e *Entry, now int64) float64 { return 0 }
func (custom) OnEvict(e *Entry)                     {}

// TestShardedApplyPiggyback checks the three outcomes of one piggyback
// element against a cached copy.
func TestShardedApplyPiggyback(t *testing.T) {
	s := NewSharded(1<<20, 1, nil)
	now := int64(100)
	if got := s.ApplyPiggyback("http://o/a", 50, now+10, now+20, now); got != PiggybackMiss {
		t.Fatalf("uncached resource: want PiggybackMiss, got %v", got)
	}
	s.Put(Entry{URL: "http://o/a", Size: 10, LastModified: 50, Expires: now + 5, Body: []byte("aa")}, now)
	if got := s.ApplyPiggyback("http://o/a", 50, now+30, now+40, now); got != PiggybackRefreshed {
		t.Fatalf("current copy: want PiggybackRefreshed, got %v", got)
	}
	v, ok := s.PeekView("http://o/a")
	if !ok || v.Expires != now+30 {
		t.Fatalf("refresh should extend expiration to %d, got %+v %v", now+30, v, ok)
	}
	if got := s.ApplyPiggyback("http://o/a", 60, now+50, now+60, now); got != PiggybackInvalidated {
		t.Fatalf("newer Last-Modified: want PiggybackInvalidated, got %v", got)
	}
	if s.Contains("http://o/a") {
		t.Fatal("invalidated copy should be deleted")
	}
}

// TestEntryContentTypeRoundTrip covers the Content-Type satellite at the
// cache layer: the header survives insert, replace, and view.
func TestEntryContentTypeRoundTrip(t *testing.T) {
	s := NewSharded(1<<20, 1, nil)
	s.Put(Entry{URL: "u", Size: 5, Expires: 10, Body: []byte("hello"), ContentType: "text/html"}, 0)
	v, ok := s.Lookup("u", 1)
	if !ok || v.ContentType != "text/html" {
		t.Fatalf("content type lost on insert: %+v %v", v, ok)
	}
	s.Put(Entry{URL: "u", Size: 5, Expires: 10, Body: []byte("bytes"), ContentType: "image/gif"}, 2)
	v, _ = s.PeekView("u")
	if v.ContentType != "image/gif" {
		t.Fatalf("content type not updated on replace: %+v", v)
	}
}

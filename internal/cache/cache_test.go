package cache

import (
	"container/heap"
	"math/rand"
	"strconv"
	"testing"
)

func put(c *Cache, url string, size int64, now int64) []string {
	return c.Put(Entry{URL: url, Size: size, Expires: now + 300, FetchedAt: now}, now)
}

func TestCacheBasicPutGet(t *testing.T) {
	c := New(1000, LRU{})
	put(c, "/a", 100, 1)
	e, ok := c.Get("/a", 2)
	if !ok || e.Size != 100 {
		t.Fatalf("Get = %+v, %v", e, ok)
	}
	if _, ok := c.Get("/b", 3); ok {
		t.Fatal("phantom hit")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
	if got := c.HitRate(); got != 0.5 {
		t.Errorf("HitRate = %v", got)
	}
}

func TestCacheCapacityEnforced(t *testing.T) {
	c := New(250, LRU{})
	put(c, "/a", 100, 1)
	put(c, "/b", 100, 2)
	evicted := put(c, "/c", 100, 3)
	if c.Used() > c.Capacity() {
		t.Fatalf("used %d > capacity %d", c.Used(), c.Capacity())
	}
	if len(evicted) != 1 || evicted[0] != "/a" {
		t.Fatalf("evicted %v, want [/a] (LRU)", evicted)
	}
}

func TestLRUEvictionOrderRespectsAccess(t *testing.T) {
	c := New(250, LRU{})
	put(c, "/a", 100, 1)
	put(c, "/b", 100, 2)
	c.Get("/a", 5) // /a now more recent than /b
	evicted := put(c, "/c", 100, 6)
	if len(evicted) != 1 || evicted[0] != "/b" {
		t.Fatalf("evicted %v, want [/b]", evicted)
	}
}

func TestOversizeObjectNotCached(t *testing.T) {
	c := New(100, LRU{})
	put(c, "/big", 500, 1)
	if c.Len() != 0 || c.Used() != 0 {
		t.Fatal("oversize object cached")
	}
	// Replacing an existing entry with an oversize version drops it.
	put(c, "/a", 50, 2)
	put(c, "/a", 500, 3)
	if _, ok := c.Peek("/a"); ok {
		t.Fatal("oversize replacement retained stale copy")
	}
}

func TestPutReplaceAdjustsUsed(t *testing.T) {
	c := New(1000, LRU{})
	put(c, "/a", 100, 1)
	put(c, "/a", 300, 2)
	if c.Used() != 300 || c.Len() != 1 {
		t.Fatalf("used=%d len=%d", c.Used(), c.Len())
	}
}

func TestDelete(t *testing.T) {
	c := New(1000, LRU{})
	put(c, "/a", 100, 1)
	if !c.Delete("/a") || c.Delete("/a") {
		t.Fatal("Delete semantics")
	}
	if c.Used() != 0 || c.Len() != 0 {
		t.Fatal("Delete did not release space")
	}
}

func TestFreshnessLifecycle(t *testing.T) {
	c := New(1000, LRU{})
	c.Put(Entry{URL: "/a", Size: 10, Expires: 100}, 50)
	e, _ := c.Peek("/a")
	if !e.Fresh(99) || e.Fresh(100) {
		t.Error("Fresh boundary wrong")
	}
	if !c.Freshen("/a", 500) {
		t.Fatal("Freshen failed")
	}
	if !e.Fresh(400) {
		t.Error("Freshen did not extend expiry")
	}
	// Freshen never shortens.
	c.Freshen("/a", 300)
	if e.Expires != 500 {
		t.Error("Freshen shortened expiry")
	}
	if c.Freshen("/missing", 1) {
		t.Error("Freshen of missing entry")
	}
}

func TestGDSizeFavorsSmallObjects(t *testing.T) {
	g := &GDSize{}
	c := New(1000, g)
	put(c, "/small", 10, 1)
	put(c, "/large", 900, 2)
	// Adding more forces one eviction: the large object has the lower
	// H = L + 1/size.
	evicted := put(c, "/c", 200, 3)
	if len(evicted) != 1 || evicted[0] != "/large" {
		t.Fatalf("evicted %v, want [/large]", evicted)
	}
	if g.L() == 0 {
		t.Error("GD-Size aging term not updated on eviction")
	}
}

func TestGDSizeAgingAllowsEvictingSmallCold(t *testing.T) {
	g := &GDSize{}
	c := New(300, g)
	put(c, "/cold-small", 50, 1)
	// Stream of moderate objects raises L past the cold entry's H.
	for i := 0; i < 20; i++ {
		put(c, "/s"+strconv.Itoa(i), 120, int64(2+i))
	}
	if _, ok := c.Peek("/cold-small"); ok {
		// L must eventually exceed the untouched small entry's H.
		t.Error("cold small object never aged out")
	}
}

func TestLFUKeepsFrequentEntries(t *testing.T) {
	c := New(250, LFU{})
	put(c, "/hot", 100, 1)
	put(c, "/cold", 100, 2)
	for i := 0; i < 5; i++ {
		c.Get("/hot", int64(3+i))
	}
	evicted := put(c, "/new", 100, 10)
	if len(evicted) != 1 || evicted[0] != "/cold" {
		t.Fatalf("evicted %v, want [/cold]", evicted)
	}
}

func TestPiggybackLRUProtectsPinned(t *testing.T) {
	c := New(250, PiggybackLRU{})
	put(c, "/pred", 100, 1) // oldest, but predicted
	put(c, "/other", 100, 5)
	if !c.Pin("/pred", 1000, 6) {
		t.Fatal("Pin failed")
	}
	evicted := put(c, "/new", 100, 7)
	if len(evicted) != 1 || evicted[0] != "/other" {
		t.Fatalf("evicted %v, want [/other] (pinned protected)", evicted)
	}
	if c.Pin("/missing", 10, 6) {
		t.Error("Pin of missing entry")
	}
}

func TestPinExpires(t *testing.T) {
	c := New(250, PiggybackLRU{})
	put(c, "/pred", 100, 1)
	c.Pin("/pred", 50, 2) // pin expires at t=50
	put(c, "/other", 100, 100)
	// At t=200 the pin has lapsed; /pred is oldest again. Reprioritize
	// happens on events: a Get on /other refreshes it past the pin.
	c.Get("/other", 200)
	evicted := put(c, "/new", 100, 201)
	if len(evicted) != 1 || evicted[0] != "/pred" {
		t.Fatalf("evicted %v, want [/pred] after pin lapse", evicted)
	}
}

func TestHeapInvariantUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := New(5000, LRU{})
	for i := 0; i < 5000; i++ {
		url := "/r" + strconv.Itoa(rng.Intn(200))
		switch rng.Intn(5) {
		case 0:
			c.Delete(url)
		case 1:
			c.Get(url, int64(i))
		default:
			put(c, url, int64(rng.Intn(400)+1), int64(i))
		}
		if c.Used() > c.Capacity() {
			t.Fatalf("over capacity at step %d: %d", i, c.Used())
		}
	}
	// Heap and map must agree.
	if len(c.h) != c.Len() {
		t.Fatalf("heap %d entries, map %d", len(c.h), c.Len())
	}
	var sum int64
	for _, e := range c.h {
		if c.entries[e.URL] != e {
			t.Fatal("heap entry not in map")
		}
		if c.h[e.heapIdx] != e {
			t.Fatal("heapIdx wrong")
		}
		sum += e.Size
	}
	if sum != c.Used() {
		t.Fatalf("used accounting drifted: %d vs %d", sum, c.Used())
	}
	// Min-heap property.
	for i := 1; i < len(c.h); i++ {
		parent := (i - 1) / 2
		if c.h[parent].priority > c.h[i].priority {
			t.Fatal("heap property violated")
		}
	}
}

func TestMakeRoomNeverEvictsNewest(t *testing.T) {
	// With LRU, the entry just inserted has the highest priority, but
	// construct a policy where the new entry is the minimum: GD-Size
	// with a huge object (tiny 1/size) among small ones.
	g := &GDSize{}
	c := New(1000, g)
	for i := 0; i < 9; i++ {
		put(c, "/s"+strconv.Itoa(i), 100, int64(i+1))
	}
	evicted := put(c, "/huge", 900, 100) // H = L + 1/900: the minimum
	if _, ok := c.Peek("/huge"); !ok {
		t.Fatalf("newly inserted entry was evicted (evicted=%v)", evicted)
	}
	if c.Used() > c.Capacity() {
		t.Fatal("over capacity")
	}
}

func TestHeapRemoveMiddle(t *testing.T) {
	c := New(10000, LRU{})
	for i := 0; i < 10; i++ {
		put(c, "/r"+strconv.Itoa(i), 10, int64(i))
	}
	c.Delete("/r5")
	if c.Len() != 9 {
		t.Fatal("Delete miscounted")
	}
	// Drain via eviction; all remaining URLs must come out exactly once.
	seen := map[string]bool{}
	for c.Len() > 0 {
		victim := c.h[0]
		heap.Pop(&c.h)
		delete(c.entries, victim.URL)
		if seen[victim.URL] {
			t.Fatalf("duplicate %s", victim.URL)
		}
		seen[victim.URL] = true
	}
	if len(seen) != 9 || seen["/r5"] {
		t.Fatalf("drain saw %v", seen)
	}
}

func TestServerGDFavorsHintedEntries(t *testing.T) {
	g := &ServerGD{}
	c := New(300, g)
	put(c, "/hinted", 100, 1)
	put(c, "/plain", 100, 2)
	// The server keeps naming /hinted in piggybacks.
	for i := 0; i < 5; i++ {
		if !c.Hint("/hinted", int64(100+i), int64(3+i)) {
			t.Fatal("Hint failed")
		}
	}
	evicted := put(c, "/new", 150, 10)
	for _, url := range evicted {
		if url == "/hinted" {
			t.Fatal("hinted entry evicted before plain one")
		}
	}
	if _, ok := c.Peek("/hinted"); !ok {
		t.Fatal("hinted entry gone")
	}
	e, _ := c.Peek("/hinted")
	if e.HintCount() != 5 {
		t.Errorf("HintCount = %d", e.HintCount())
	}
	if c.Hint("/missing", 1, 1) {
		t.Error("Hint on missing entry")
	}
}

func TestServerGDAging(t *testing.T) {
	g := &ServerGD{}
	c := New(200, g)
	put(c, "/old", 100, 1)
	for i := 0; i < 30; i++ {
		put(c, "/s"+strconv.Itoa(i), 150, int64(2+i))
	}
	if g.L() == 0 {
		t.Error("aging term never advanced")
	}
}

func TestAccessorsAndPolicyNames(t *testing.T) {
	c := New(1000, LRU{})
	if got := (LRU{}).Name(); got != "lru" {
		t.Errorf("LRU{}.Name() = %q", got)
	}
	for _, p := range []Policy{LRU{}, LFU{}, &GDSize{}, &ServerGD{}, PiggybackLRU{}} {
		if p.Name() == "" {
			t.Error("empty policy name")
		}
		pc := New(1000, p)
		put(pc, "/x", 100, 1)
		if _, ok := pc.Get("/x", 2); !ok {
			t.Errorf("%s: miss after put", p.Name())
		}
		p.OnEvict(&Entry{}) // must not panic for stateless policies
	}
	put(c, "/a", 10, 5)
	c.Get("/a", 9)
	e, _ := c.Peek("/a")
	if e.Hits() != 1 || e.LastAccess() != 9 || e.PinnedUntil() != 0 {
		t.Errorf("accessors: hits=%d la=%d pin=%d", e.Hits(), e.LastAccess(), e.PinnedUntil())
	}
}

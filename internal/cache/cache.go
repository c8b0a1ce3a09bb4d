// Package cache implements the proxy cache: a byte-capacity store with
// pluggable replacement policies (LRU, LFU, the cost-aware GD-Size baseline
// of Cao & Irani [5], and a piggyback-aware policy that protects resources
// predicted by recent piggyback messages, §4) and the freshness bookkeeping
// the coherency protocol needs (expiration time Δ, Last-Modified tracking).
package cache

import (
	"container/heap"

	"piggyback/internal/obs"
)

// Entry is one cached resource.
type Entry struct {
	URL string
	// Size is the resource size in bytes, charged against capacity.
	Size int64
	// LastModified is the version of the resource at the server, as of
	// the last fetch or piggyback refresh (§2.1).
	LastModified int64
	// Expires is when the cached copy requires validation before use:
	// fetch time + the freshness interval Δ (§2.1).
	Expires int64
	// FetchedAt is when the body was last transferred.
	FetchedAt int64
	// Body holds the cached response body (the capacity charge is Size,
	// the resource's authoritative size, even when the stored body is a
	// truncated testbed synthesis).
	Body []byte
	// ContentType is the MIME type the origin sent with the body, served
	// back on cache hits and 304-validated responses.
	ContentType string
	// LastModifiedHTTP is the HTTP-date rendering of LastModified, filled
	// by the inserter (usually the origin's own Last-Modified header) so
	// serving a hit never re-formats the time. Empty means "format on
	// demand"; it is never updated independently of LastModified.
	LastModifiedHTTP string
	// Prefetched marks entries fetched speculatively from piggyback
	// information; cleared on the first client hit so useful prefetches
	// can be counted (§4).
	Prefetched bool

	// Replacement bookkeeping.
	lastAccess int64
	hits       int
	// pinnedUntil protects the entry from eviction preference while a
	// recent piggyback message predicted it (§4 cache replacement).
	pinnedUntil int64
	// hintCount accumulates how many piggyback messages have named this
	// entry — the server-assisted popularity signal of the paper's
	// follow-up work on cache replacement ([24]).
	hintCount int
	// priority is the policy-assigned eviction priority (lowest first).
	priority float64
	heapIdx  int
}

// Fresh reports whether the entry can be served without validation at now.
func (e *Entry) Fresh(now int64) bool { return now < e.Expires }

// Hits returns the number of cache hits the entry has served.
func (e *Entry) Hits() int { return e.hits }

// LastAccess returns the entry's last access time.
func (e *Entry) LastAccess() int64 { return e.lastAccess }

// PinnedUntil returns the prediction-protection horizon.
func (e *Entry) PinnedUntil() int64 { return e.pinnedUntil }

// HintCount returns how many piggyback messages have named this entry.
func (e *Entry) HintCount() int { return e.hintCount }

// Priority returns the policy-assigned eviction priority as of the last
// recomputation (insert, hit, pin). Custom demotion gates on a tiered
// store can read it to rank eviction victims.
func (e *Entry) Priority() float64 { return e.priority }

// Policy assigns eviction priorities. The cache evicts the entry with the
// lowest priority. Priorities are recomputed on insert, hit, and pin — the
// event-driven discipline GD-Size is defined by.
type Policy interface {
	Name() string
	// Priority computes the entry's eviction priority at an event.
	Priority(e *Entry, now int64) float64
	// OnEvict observes an eviction (GD-Size updates its aging term L).
	OnEvict(e *Entry)
}

// Cache is a byte-capacity cache. It is not safe for concurrent use: the
// trace-driven simulators drive it single-threaded, and Sharded wraps one
// Cache per shard — each under its own mutex — for the proxy's concurrent
// hot path.
type Cache struct {
	capacity int64
	used     int64
	entries  map[string]*Entry
	h        entryHeap
	policy   Policy

	// evictObserver, when set, sees every entry evicted for capacity
	// (not explicit deletes or invalidations) before it is dropped — the
	// demotion hook a tiered store hangs eviction on. The entry must be
	// treated as read-only and not retained; copy what is needed.
	evictObserver func(e *Entry, now int64)

	// Stats.
	Hits, Misses, Evictions int
}

// New returns a cache with the given byte capacity and policy.
func New(capacity int64, p Policy) *Cache {
	return &Cache{capacity: capacity, entries: make(map[string]*Entry), policy: p}
}

// Capacity returns the configured byte capacity.
func (c *Cache) Capacity() int64 { return c.capacity }

// Used returns the bytes currently cached.
func (c *Cache) Used() int64 { return c.used }

// Len returns the number of cached entries.
func (c *Cache) Len() int { return len(c.entries) }

// Get returns the entry for url, counting a hit or miss and updating
// replacement state.
func (c *Cache) Get(url string, now int64) (*Entry, bool) {
	e, ok := c.entries[url]
	if !ok {
		c.Misses++
		return nil, false
	}
	c.Hits++
	e.hits++
	e.lastAccess = now
	c.reprioritize(e, now)
	return e, true
}

// Peek returns the entry without side effects.
func (c *Cache) Peek(url string) (*Entry, bool) {
	e, ok := c.entries[url]
	return e, ok
}

// Put inserts or replaces the entry for e.URL, evicting low-priority
// entries as needed. It returns the evicted URLs. Resources larger than
// the whole capacity are not cached.
func (c *Cache) Put(e Entry, now int64) (evicted []string) {
	if e.Size > c.capacity {
		// Replacing an existing copy with an uncachable version drops
		// the old copy.
		c.Delete(e.URL)
		return nil
	}
	if old, ok := c.entries[e.URL]; ok {
		c.used -= old.Size
		c.used += e.Size
		old.Size = e.Size
		old.LastModified = e.LastModified
		old.Expires = e.Expires
		old.FetchedAt = e.FetchedAt
		old.Body = e.Body
		old.ContentType = e.ContentType
		old.LastModifiedHTTP = e.LastModifiedHTTP
		old.Prefetched = e.Prefetched
		old.lastAccess = now
		c.reprioritize(old, now)
		return c.makeRoom(now, old)
	}
	ne := new(Entry)
	*ne = e
	ne.lastAccess = now
	c.entries[ne.URL] = ne
	c.used += ne.Size
	ne.priority = c.policy.Priority(ne, now)
	heap.Push(&c.h, ne)
	return c.makeRoom(now, ne)
}

// makeRoom evicts until used <= capacity, never evicting keep.
func (c *Cache) makeRoom(now int64, keep *Entry) (evicted []string) {
	for c.used > c.capacity && len(c.h) > 0 {
		victim := c.h[0]
		if victim == keep {
			// The newest entry is the lowest priority: evict the
			// next-lowest instead (pop, evict new min, push back).
			heap.Pop(&c.h)
			if len(c.h) == 0 {
				heap.Push(&c.h, victim)
				break
			}
			next := heap.Pop(&c.h).(*Entry)
			heap.Push(&c.h, victim)
			c.evict(next, now)
			evicted = append(evicted, next.URL)
			continue
		}
		heap.Pop(&c.h)
		c.evict(victim, now)
		evicted = append(evicted, victim.URL)
	}
	return evicted
}

func (c *Cache) evict(e *Entry, now int64) {
	delete(c.entries, e.URL)
	c.used -= e.Size
	c.Evictions++
	c.policy.OnEvict(e)
	if c.evictObserver != nil {
		c.evictObserver(e, now)
	}
}

// SetEvictObserver installs fn to observe capacity evictions (nil
// removes it). fn runs inside the eviction path — under the shard lock
// when the Cache is a Sharded shard — so it must be fast and must not
// call back into the cache.
func (c *Cache) SetEvictObserver(fn func(e *Entry, now int64)) { c.evictObserver = fn }

// Delete removes url, returning whether it was present.
func (c *Cache) Delete(url string) bool {
	e, ok := c.entries[url]
	if !ok {
		return false
	}
	heap.Remove(&c.h, e.heapIdx)
	delete(c.entries, url)
	c.used -= e.Size
	return true
}

// Freshen extends the entry's expiration (a validation or a piggyback
// refresh, §2.1) without transferring the body.
func (c *Cache) Freshen(url string, expires int64) bool {
	e, ok := c.entries[url]
	if !ok {
		return false
	}
	if expires > e.Expires {
		e.Expires = expires
	}
	return true
}

// Pin protects the entry from eviction preference until the given time —
// "the proxy could continue to cache items that have appeared in recent
// piggyback messages" (§4).
func (c *Cache) Pin(url string, until, now int64) bool {
	e, ok := c.entries[url]
	if !ok {
		return false
	}
	if until > e.pinnedUntil {
		e.pinnedUntil = until
	}
	c.reprioritize(e, now)
	return true
}

// Hint records that a piggyback message named the entry, feeding
// server-assisted replacement policies ([24]); it also pins like Pin.
func (c *Cache) Hint(url string, until, now int64) bool {
	e, ok := c.entries[url]
	if !ok {
		return false
	}
	e.hintCount++
	if until > e.pinnedUntil {
		e.pinnedUntil = until
	}
	c.reprioritize(e, now)
	return true
}

// HitRate returns hits/(hits+misses).
func (c *Cache) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

func (c *Cache) reprioritize(e *Entry, now int64) {
	e.priority = c.policy.Priority(e, now)
	heap.Fix(&c.h, e.heapIdx)
}

// --- Store conformance -------------------------------------------------
//
// The plain Cache satisfies Store so differential tests (and simulators
// that want the interface) can drive it interchangeably with Sharded and
// tiered.Tiered. Its Lookup, PeekView, Contains and ApplyPiggyback are the
// only implementations: a Sharded shard is a Cache, and Sharded calls
// them under the shard lock.

// Lookup returns the entry's servable state, counting a hit or miss,
// updating replacement recency, and clearing the prefetch mark.
func (c *Cache) Lookup(url string, now int64) (View, bool) {
	e, ok := c.Get(url, now)
	if !ok {
		return View{}, false
	}
	v := viewOf(e)
	if e.Prefetched {
		e.Prefetched = false
		v.WasPrefetched = true
	}
	return v, true
}

// PeekView returns the entry's state without side effects. (Peek returns
// the live *Entry for the simulators; PeekView is the Store form.)
func (c *Cache) PeekView(url string) (View, bool) {
	e, ok := c.Peek(url)
	if !ok {
		return View{}, false
	}
	return viewOf(e), true
}

// Contains reports whether url is cached.
func (c *Cache) Contains(url string) bool {
	_, ok := c.entries[url]
	return ok
}

// ApplyPiggyback applies one piggyback element (§4 cache coherency and
// replacement): invalidate an outdated copy, or freshen and hint a
// current one.
func (c *Cache) ApplyPiggyback(url string, lastModified, freshenTo, pinUntil, now int64) PiggybackOutcome {
	e, ok := c.Peek(url)
	if !ok {
		return PiggybackMiss
	}
	if lastModified > e.LastModified {
		c.Delete(url)
		return PiggybackInvalidated
	}
	c.Freshen(url, freshenTo)
	c.Hint(url, pinUntil, now)
	return PiggybackRefreshed
}

// Stats returns the cache's counters.
func (c *Cache) Stats() StoreStats {
	return StoreStats{
		Hits:      int64(c.Hits),
		Misses:    int64(c.Misses),
		Evictions: int64(c.Evictions),
	}
}

// Instrument is a no-op: the plain Cache is the single-threaded building
// block; telemetry lives on the concurrent stores wrapping it.
func (c *Cache) Instrument(reg *obs.Registry, prefix string) {}

// Close is a no-op; the plain Cache holds no external resources.
func (c *Cache) Close() error { return nil }

// entryHeap is a min-heap on Entry.priority.
type entryHeap []*Entry

func (h entryHeap) Len() int            { return len(h) }
func (h entryHeap) Less(i, j int) bool  { return h[i].priority < h[j].priority }
func (h entryHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].heapIdx = i; h[j].heapIdx = j }
func (h *entryHeap) Push(x interface{}) { e := x.(*Entry); e.heapIdx = len(*h); *h = append(*h, e) }
func (h *entryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

package cache

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"piggyback/internal/obs"
)

// Sharded is a concurrent byte-capacity cache: N power-of-two shards keyed
// by URL hash, each holding its own mutex, entry map, eviction heap, and
// policy instance, with the byte capacity partitioned across shards. Two
// requests for different shards never contend, so a proxy serving parallel
// clients scales with cores instead of serializing on one cache lock.
//
// The partition changes one observable behaviour relative to a single
// Cache of the same total capacity: an object larger than its shard's
// slice of the capacity (roughly capacity/shards) is uncachable, because
// eviction decisions never cross shards. With shards == 1 a Sharded is
// observationally identical to a Cache.
type Sharded struct {
	shards []shard
	mask   uint32

	// Aggregate stats, atomically maintained so readers never take a
	// shard lock.
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	capacity int64

	// Optional telemetry, set by Instrument.
	evGauge *obs.Counter
}

// shard is one lock domain: a plain Cache guarded by a mutex, plus its
// slice of telemetry gauges.
type shard struct {
	mu sync.Mutex
	c  *Cache

	bytesGauge   *obs.Counter
	entriesGauge *obs.Counter
	evGauge      *obs.Counter
}

// DefaultShards is the shard count used when the caller passes zero: the
// smallest power of two covering the machine's logical CPUs, clamped to
// [defaultMinShards, defaultMaxShards]. More shards than cores buys
// nothing; fewer serializes independent requests.
func DefaultShards() int {
	n := nextPow2(runtime.GOMAXPROCS(0))
	if n < defaultMinShards {
		n = defaultMinShards
	}
	if n > defaultMaxShards {
		n = defaultMaxShards
	}
	return n
}

const (
	defaultMinShards = 8
	defaultMaxShards = 64
	// minShardBytes is the smallest per-shard capacity NewSharded will
	// partition down to.
	minShardBytes = 64 << 10
)

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewSharded returns a sharded cache with the given total byte capacity.
// shards is rounded up to a power of two; zero or negative means
// DefaultShards. newPolicy constructs one independent policy instance per
// shard (stateful policies like GD-Size carry per-shard aging state — use
// PolicyFactory to derive a constructor from a prototype instance); nil
// means PiggybackLRU.
func NewSharded(capacity int64, shards int, newPolicy func() Policy) *Sharded {
	if shards <= 0 {
		shards = DefaultShards()
	}
	shards = nextPow2(shards)
	// Partitioning a small capacity would make ordinary objects
	// uncachable (nothing larger than capacity/shards ever caches), so
	// halve the shard count until each shard's slice is at least
	// minShardBytes. Tiny caches degrade gracefully to one shard.
	for shards > 1 && capacity/int64(shards) < minShardBytes {
		shards >>= 1
	}
	if newPolicy == nil {
		newPolicy = func() Policy { return PiggybackLRU{} }
	}
	s := &Sharded{
		shards:   make([]shard, shards),
		mask:     uint32(shards - 1),
		capacity: capacity,
	}
	per := capacity / int64(shards)
	rem := capacity % int64(shards)
	for i := range s.shards {
		c := per
		if int64(i) < rem {
			c++
		}
		s.shards[i].c = New(c, newPolicy())
	}
	return s
}

// fnv1a is the 32-bit FNV-1a hash, inlined so the hot path costs one pass
// over the key and no allocation.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (s *Sharded) shard(url string) *shard {
	return &s.shards[fnv1a(url)&s.mask]
}

// View is one entry's servable state, copied out under the shard lock so
// no *Entry pointer escapes it. Body is shared, not copied: cached bodies
// are immutable once stored (Put replaces the slice wholesale).
type View struct {
	Body         []byte
	Size         int64
	LastModified int64
	Expires      int64
	ContentType  string
	// LastModifiedHTTP mirrors Entry.LastModifiedHTTP: the pre-rendered
	// HTTP-date served on hits without re-formatting.
	LastModifiedHTTP string
	// WasPrefetched reports that this access was the first client touch
	// of a speculatively fetched entry (the access clears the mark, so
	// useful prefetches are counted once).
	WasPrefetched bool
}

// Fresh reports whether the viewed entry can be served without validation.
func (v View) Fresh(now int64) bool { return now < v.Expires }

// Lookup returns the entry's servable state, counting a hit or miss,
// updating replacement recency, and clearing the prefetch mark — the whole
// read side of a client request in one shard-lock critical section.
func (s *Sharded) Lookup(url string, now int64) (View, bool) {
	sh := s.shard(url)
	sh.mu.Lock()
	v, ok := sh.c.Lookup(url, now)
	sh.mu.Unlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return v, ok
}

func viewOf(e *Entry) View {
	return View{
		Body:             e.Body,
		Size:             e.Size,
		LastModified:     e.LastModified,
		Expires:          e.Expires,
		ContentType:      e.ContentType,
		LastModifiedHTTP: e.LastModifiedHTTP,
	}
}

// PeekView returns the entry's state without side effects.
func (s *Sharded) PeekView(url string) (View, bool) {
	sh := s.shard(url)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.c.PeekView(url)
}

// Contains reports whether url is cached.
func (s *Sharded) Contains(url string) bool {
	sh := s.shard(url)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.c.Contains(url)
}

// Put inserts or replaces the entry for e.URL in its shard, evicting
// low-priority entries of that shard as needed, and returns the evicted
// URLs. Resources larger than the shard's capacity are not cached.
func (s *Sharded) Put(e Entry, now int64) (evicted []string) {
	sh := s.shard(e.URL)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	before := sh.c.Evictions
	evicted = sh.c.Put(e, now)
	s.noteMutation(sh, sh.c.Evictions-before)
	return evicted
}

// Delete removes url, returning whether it was present.
func (s *Sharded) Delete(url string) bool {
	sh := s.shard(url)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ok := sh.c.Delete(url)
	if ok {
		s.noteMutation(sh, 0)
	}
	return ok
}

// Freshen extends the entry's expiration without transferring the body.
func (s *Sharded) Freshen(url string, expires int64) bool {
	sh := s.shard(url)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.c.Freshen(url, expires)
}

// Pin protects the entry from eviction preference until the given time.
func (s *Sharded) Pin(url string, until, now int64) bool {
	sh := s.shard(url)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.c.Pin(url, until, now)
}

// Hint records that a piggyback message named the entry; it also pins.
func (s *Sharded) Hint(url string, until, now int64) bool {
	sh := s.shard(url)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.c.Hint(url, until, now)
}

// PiggybackOutcome is the effect of one piggyback element on the cache.
type PiggybackOutcome int

const (
	// PiggybackMiss: the named resource is not cached.
	PiggybackMiss PiggybackOutcome = iota
	// PiggybackInvalidated: the cached copy predates the element's
	// Last-Modified and was deleted (§4 cache coherency).
	PiggybackInvalidated
	// PiggybackRefreshed: the cached copy is current; its expiration was
	// extended and its replacement hint count bumped.
	PiggybackRefreshed
)

// ApplyPiggyback applies one piggyback element to the cache (§4 cache
// coherency and replacement) as a single shard-local critical section: the
// compare-against-cached-Last-Modified, the invalidate-or-freshen, and the
// replacement hint happen atomically per key, and a large P-Volume trailer
// only ever holds one shard's lock at a time.
func (s *Sharded) ApplyPiggyback(url string, lastModified, freshenTo, pinUntil, now int64) PiggybackOutcome {
	sh := s.shard(url)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	o := sh.c.ApplyPiggyback(url, lastModified, freshenTo, pinUntil, now)
	if o == PiggybackInvalidated {
		s.noteMutation(sh, 0)
	}
	return o
}

// noteMutation refreshes the shard's occupancy gauges and the aggregate
// eviction counters after a mutating operation. Caller holds sh.mu.
func (s *Sharded) noteMutation(sh *shard, evicted int) {
	if evicted > 0 {
		s.evictions.Add(int64(evicted))
		if sh.evGauge != nil {
			sh.evGauge.Add(int64(evicted))
		}
	}
	if sh.bytesGauge != nil {
		sh.bytesGauge.Add(sh.c.Used() - sh.bytesGauge.Load())
		sh.entriesGauge.Add(int64(sh.c.Len()) - sh.entriesGauge.Load())
	}
}

// Instrument registers shard-occupancy and eviction gauges in reg under
// prefix: prefix.evictions (aggregate counter), and per shard
// prefix.shardNN.bytes / prefix.shardNN.entries (occupancy gauges kept
// current by every mutating operation).
func (s *Sharded) Instrument(reg *obs.Registry, prefix string) {
	s.evGauge = reg.Counter(prefix + ".evictions")
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.evGauge = s.evGauge
		sh.bytesGauge = reg.Counter(fmt.Sprintf("%s.shard%02d.bytes", prefix, i))
		sh.entriesGauge = reg.Counter(fmt.Sprintf("%s.shard%02d.entries", prefix, i))
		sh.bytesGauge.Add(sh.c.Used() - sh.bytesGauge.Load())
		sh.entriesGauge.Add(int64(sh.c.Len()) - sh.entriesGauge.Load())
		sh.mu.Unlock()
	}
}

// ShardCount returns the number of shards.
func (s *Sharded) ShardCount() int { return len(s.shards) }

// Capacity returns the configured total byte capacity.
func (s *Sharded) Capacity() int64 { return s.capacity }

// Used returns the bytes currently cached across all shards.
func (s *Sharded) Used() int64 {
	var used int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		used += sh.c.Used()
		sh.mu.Unlock()
	}
	return used
}

// Len returns the number of cached entries across all shards.
func (s *Sharded) Len() int {
	var n int
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.c.Len()
		sh.mu.Unlock()
	}
	return n
}

// Stats returns the aggregate lookup and eviction counters.
func (s *Sharded) Stats() StoreStats {
	return StoreStats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Evictions: s.evictions.Load(),
	}
}

// Close is a no-op; the RAM tier holds no external resources.
func (s *Sharded) Close() error { return nil }

// SetEvictObserver installs fn on every shard to observe capacity
// evictions (nil removes it). fn runs under the evicting shard's lock:
// it must be fast, must not call back into the cache, and must copy
// anything it keeps from the entry.
func (s *Sharded) SetEvictObserver(fn func(e *Entry, now int64)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.c.SetEvictObserver(fn)
		sh.mu.Unlock()
	}
}

// Dump copies out every cached entry (bodies shared, not copied: cached
// bodies are immutable once stored). The snapshot is per-shard
// consistent; a tiered store uses it to flush the RAM working set to
// disk on shutdown.
func (s *Sharded) Dump() []Entry {
	var out []Entry
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, e := range sh.c.entries {
			out = append(out, *e)
		}
		sh.mu.Unlock()
	}
	return out
}

// PolicyFactory derives a per-shard policy constructor from a prototype
// instance, preserving the Policy values callers already configure. The
// built-in stateless policies (LRU, LFU, PiggybackLRU) are shared as-is;
// the stateful ones (GD-Size, ServerGD) get an independent instance per
// shard so their aging terms never race. An unknown policy type is shared
// across shards behind one mutex — correct for any implementation, at the
// cost of serializing its priority computations.
func PolicyFactory(p Policy) func() Policy {
	switch q := p.(type) {
	case nil:
		return nil
	case LRU, LFU, PiggybackLRU:
		return func() Policy { return p }
	case *GDSize:
		return func() Policy { return &GDSize{Cost: q.Cost} }
	case *ServerGD:
		return func() Policy { return &ServerGD{} }
	default:
		shared := &lockedPolicy{p: p}
		return func() Policy { return shared }
	}
}

// lockedPolicy serializes an unknown (possibly stateful) policy shared
// across shards. Shard locks order calls within a shard; this mutex orders
// them across shards.
type lockedPolicy struct {
	mu sync.Mutex
	p  Policy
}

func (l *lockedPolicy) Name() string { return l.p.Name() }

func (l *lockedPolicy) Priority(e *Entry, now int64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.p.Priority(e, now)
}

func (l *lockedPolicy) OnEvict(e *Entry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.p.OnEvict(e)
}

package cache

import "piggyback/internal/obs"

// Store is the cache surface the proxy serves from. Three implementations
// satisfy it: the plain single-threaded Cache (simulators, reference for
// differential tests), the concurrent Sharded RAM cache, and
// tiered.Tiered, which layers an append-only disk tier under a Sharded
// RAM tier. The proxy holds a Store, so swapping tiers is a Config change,
// not a code change.
//
// Hit/miss accounting lives behind Stats(): each implementation counts a
// logical lookup exactly once, wherever it is satisfied (a tiered disk hit
// is one hit, not a RAM miss plus a disk hit).
type Store interface {
	// Lookup returns the entry's servable state, counting a hit or miss,
	// updating replacement recency, and clearing the prefetch mark.
	Lookup(url string, now int64) (View, bool)
	// PeekView returns the entry's state without side effects.
	PeekView(url string) (View, bool)
	// Contains reports whether url is cached (no side effects).
	Contains(url string) bool
	// Put inserts or replaces the entry for e.URL, evicting as needed,
	// and returns the evicted URLs.
	Put(e Entry, now int64) (evicted []string)
	// Delete removes url, returning whether it was present. Deleted
	// entries are dropped, never demoted: deletion means invalidation.
	Delete(url string) bool
	// Freshen extends the entry's expiration without a body transfer.
	Freshen(url string, expires int64) bool
	// Pin protects the entry from eviction preference until the given
	// time (§4 cache replacement).
	Pin(url string, until, now int64) bool
	// Hint records that a piggyback message named the entry; also pins.
	Hint(url string, until, now int64) bool
	// ApplyPiggyback applies one piggyback element atomically per key.
	ApplyPiggyback(url string, lastModified, freshenTo, pinUntil, now int64) PiggybackOutcome
	// Stats returns the store's aggregate counters.
	Stats() StoreStats
	// Instrument registers the store's gauges and counters in reg under
	// prefix (e.g. "cache"). Safe to call again with a fresh registry.
	Instrument(reg *obs.Registry, prefix string)
	// Capacity, Used, and Len describe occupancy across all tiers.
	Capacity() int64
	Used() int64
	Len() int
	// Close flushes any durable state (a disk tier snapshots its index
	// and demotes the RAM working set) and releases resources. A Store
	// must not be used after Close.
	Close() error
}

// StoreStats is the accounting every Store keeps. The tier fields stay
// zero for RAM-only stores.
type StoreStats struct {
	// Hits and Misses count logical lookups: a lookup satisfied by any
	// tier is one hit.
	Hits, Misses int64
	// Evictions counts entries evicted for capacity (RAM tier).
	Evictions int64
	// Demotions counts RAM-evicted entries written to the disk tier;
	// Promotions counts disk entries copied back to RAM on a hit.
	Demotions, Promotions int64
	// CleanDemotions counts RAM-evicted entries whose record was still
	// indexed unchanged, so nothing was written.
	CleanDemotions int64
	// DiskHits counts lookups satisfied from the disk tier (each is also
	// counted in Hits, exactly once).
	DiskHits int64
	// DiskBytes is the disk tier's current segment footprint in bytes.
	DiskBytes int64
	// Compactions counts segment rewrites that reclaimed holes.
	Compactions int64
}

// HitRate returns hits/(hits+misses).
func (s StoreStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Compile-time conformance: the two in-package implementations satisfy
// Store (tiered.Tiered asserts its own conformance).
var (
	_ Store = (*Cache)(nil)
	_ Store = (*Sharded)(nil)
)

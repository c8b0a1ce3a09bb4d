package tiered

import (
	"log"
	"sync"

	"piggyback/internal/cache"
	"piggyback/internal/obs"
)

// Config parameterizes the disk tier under a Tiered store.
type Config struct {
	// Dir is the segment directory. Empty disables the disk tier: the
	// Tiered store becomes a transparent wrapper over its RAM tier
	// (useful for differential tests and for -disk-dir-less deployments
	// sharing one code path).
	Dir string
	// DiskBytes caps the on-disk segment footprint; zero means 256 MiB.
	DiskBytes int64
	// Set by tests: segmentBytes (zero means 4 MiB) is a segment file's
	// rotation size; logf (nil means log.Printf) reports quarantines and
	// I/O degradations.
	segmentBytes int64
	logf         func(format string, args ...interface{})
}

// worthDisk is the demotion gate. It keeps an evicted entry when the
// replacement machinery saw utility in it: it served hits, a piggyback
// message named it (hint) or pinned it, or it was prefetched on a server's
// prediction. Entries evicted without ever showing utility are the
// policy's losers (GD-Size aged them out, PB-LRU never protected them)
// and are not worth a disk write.
func worthDisk(e *cache.Entry, now int64) bool {
	return e.Hits() > 0 || e.HintCount() > 0 || e.PinnedUntil() > now || e.Prefetched
}

// tierCounters mirrors the tier counters into an obs registry
// (cache.tier.* when instrumented with prefix "cache").
type tierCounters struct {
	demotions   *obs.Counter
	demoteClean *obs.Counter
	promotions  *obs.Counter
	diskHits    *obs.Counter
	diskBytes   *obs.Counter
	compactions *obs.Counter
}

// Tiered is a two-tier cache.Store: a Sharded RAM tier over an
// append-only segment-file disk tier. The RAM-hit path is a single
// delegation with no extra allocation; only misses touch the disk tier's
// mutex.
//
// The disk tier is inclusive. A promoted entry keeps its record, and a
// key held in both tiers satisfies: equal LastModified, disk expiration
// no later than RAM's. Whatever changes a key's version in RAM (Put,
// Delete, a piggyback invalidation) drops the record.
//
// RAM evicts only inside an insert — Put, or a promotion in Lookup — and
// both hold t.mu from the insert until what it evicted is on disk, so any
// other operation on an evicted key comes wholly before its demotion or
// wholly after it.
type Tiered struct {
	ram    *cache.Sharded
	cfg    Config
	disk   *diskTier // nil in RAM-only mode
	closed sync.Once

	// mu guards disk, evicted, the counters and obsC. A promotion, Put and
	// Delete also hold it across their RAM operation, so each is one step
	// across both tiers; a RAM hit never takes it.
	mu sync.Mutex
	// evicted collects, under the evicting shard's lock, the entries the
	// current insert evicted and the gate passed; reused across inserts.
	evicted []cache.Entry

	demotions   int64 // records written
	demoteClean int64 // demotions that reused the indexed record
	promotions  int64 // disk hits, each promoted into RAM
	compactions int64
	obsC        *tierCounters

	// promoting, set only by tests, runs between a promotion's record read
	// and its RAM insert, so a test can try to run another operation on
	// the key there.
	promoting func()
}

var _ cache.Store = (*Tiered)(nil)

// New layers a disk tier under ram. With cfg.Dir == "" it returns a
// RAM-only wrapper (no files). Otherwise it opens the segment directory,
// loads the index snapshot when a valid one exists (restart-warm), and
// installs the demotion hook on ram. From then on ram belongs to the
// store: an entry put into it directly bypasses the record drop.
func New(ram *cache.Sharded, cfg Config) (*Tiered, error) {
	if cfg.DiskBytes <= 0 {
		cfg.DiskBytes = 256 << 20
	}
	if cfg.segmentBytes <= 0 {
		cfg.segmentBytes = 4 << 20
	}
	if cfg.logf == nil {
		cfg.logf = log.Printf
	}
	t := &Tiered{ram: ram, cfg: cfg}
	if cfg.Dir == "" {
		return t, nil
	}
	disk, err := openDisk(cfg.Dir, cfg.DiskBytes, cfg.segmentBytes, cfg.logf)
	if err != nil {
		return nil, err
	}
	t.disk = disk
	ram.SetEvictObserver(t.observeEvict)
	return t, nil
}

// observeEvict runs under the evicting shard's lock, inside an insert that
// holds t.mu: it applies the demotion gate and keeps a value copy of the
// entry for the insert to demote (the body slice is shared — cached bodies
// are immutable once stored).
func (t *Tiered) observeEvict(e *cache.Entry, now int64) {
	if worthDisk(e, now) {
		t.evicted = append(t.evicted, *e)
	}
}

// insertLocked puts e into the RAM tier and demotes what the insert
// evicted; if that wrote a record, it runs disk maintenance. Caller holds
// t.mu.
func (t *Tiered) insertLocked(e cache.Entry, now int64) []string {
	evicted := t.ram.Put(e, now)
	wrote := false
	for i := range t.evicted {
		wrote = t.demoteLocked(&t.evicted[i]) || wrote
	}
	clear(t.evicted)
	t.evicted = t.evicted[:0]
	if wrote {
		t.maintainLocked()
	}
	return evicted
}

// demoteLocked stores e in the disk tier, counts the outcome, and reports
// whether a record was written. An unchanged promoted entry is a clean
// demotion: its record is still indexed and nothing is written. Caller
// holds t.mu.
func (t *Tiered) demoteLocked(e *cache.Entry) (written bool) {
	written, clean := t.disk.demote(e)
	switch {
	case clean:
		t.demoteClean++
		if t.obsC != nil {
			t.obsC.demoteClean.Inc()
		}
	case written:
		t.demotions++
		if t.obsC != nil {
			t.obsC.demotions.Inc()
		}
	}
	return written
}

// maintainLocked runs disk-tier upkeep (capacity enforcement, hole
// compaction) and syncs the telemetry gauges. Caller holds t.mu.
func (t *Tiered) maintainLocked() {
	n := int64(t.disk.maintain())
	t.compactions += n
	if c := t.obsC; c != nil {
		c.compactions.Add(n)
		c.diskBytes.Add(t.disk.bytes - c.diskBytes.Load())
	}
}

// Lookup serves from RAM when possible; on a RAM miss it probes the disk
// index, and a disk hit promotes a copy of the entry into RAM (the Sharded
// tier re-runs its replacement policy; displaced entries are demoted in
// the same step). The record stays indexed. A Prefetched record reports
// WasPrefetched on its first promotion only: the promotion sets the index
// entry's reported bit, and neither the RAM copy nor a later promotion
// carries the mark. The record is read and its copy inserted in one t.mu
// section, so a Put, Delete or piggyback invalidation of the key is wholly
// before the promotion or wholly after it. Accounting: the RAM tier
// counted the miss, the disk hit re-classifies it — Stats() folds the two
// so one logical lookup counts once.
func (t *Tiered) Lookup(url string, now int64) (cache.View, bool) {
	if v, ok := t.ram.Lookup(url, now); ok {
		return v, true
	}
	if t.disk == nil {
		return cache.View{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.disk.get(url)
	if !ok {
		return cache.View{}, false
	}
	t.promotions++
	if c := t.obsC; c != nil {
		c.diskHits.Inc()
		c.promotions.Inc()
	}
	v := cache.View{
		Body:             e.Body,
		Size:             e.Size,
		LastModified:     e.LastModified,
		Expires:          e.Expires,
		ContentType:      e.ContentType,
		LastModifiedHTTP: e.LastModifiedHTTP,
	}
	if e.Prefetched {
		// First client touch of a speculative fetch, same as the RAM
		// tier's semantics: report it once and clear the mark.
		v.WasPrefetched = true
		e.Prefetched = false
		t.disk.report(url)
	}
	if t.promoting != nil {
		t.promoting()
	}
	// Promote: the RAM tier re-runs its replacement policy on insert, so
	// the promoted entry lands as a just-used entry.
	t.insertLocked(e, now)
	return v, true
}

// PeekView checks RAM then disk without side effects (no promotion).
func (t *Tiered) PeekView(url string) (cache.View, bool) {
	if v, ok := t.ram.PeekView(url); ok {
		return v, true
	}
	if t.disk == nil {
		return cache.View{}, false
	}
	t.mu.Lock()
	e, ok := t.disk.get(url)
	t.mu.Unlock()
	if !ok {
		return cache.View{}, false
	}
	return cache.View{
		Body:             e.Body,
		Size:             e.Size,
		LastModified:     e.LastModified,
		Expires:          e.Expires,
		ContentType:      e.ContentType,
		LastModifiedHTTP: e.LastModifiedHTTP,
	}, true
}

// Contains reports whether url is cached in either tier.
func (t *Tiered) Contains(url string) bool {
	return t.ram.Contains(url) || t.diskContains(url)
}

// Put inserts into the RAM tier, demotes what the insert evicted, and
// drops the disk record of e.URL so the tiers never disagree about a key's
// version — all in one t.mu section, so no promotion of the record falls
// in between.
func (t *Tiered) Put(e cache.Entry, now int64) []string {
	if t.disk == nil {
		return t.ram.Put(e, now)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	evicted := t.insertLocked(e, now)
	t.disk.dropIndexed(e.URL)
	return evicted
}

// Delete removes url from both tiers, in one t.mu section as Put does.
// Deletion is invalidation: the disk copy is dropped, not demoted to.
func (t *Tiered) Delete(url string) bool {
	if t.disk == nil {
		return t.ram.Delete(url)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ok := t.ram.Delete(url)
	return t.disk.dropIndexed(url) || ok
}

// Freshen extends the expiration wherever the entry lives.
func (t *Tiered) Freshen(url string, expires int64) bool {
	if t.ram.Freshen(url, expires) {
		return true
	}
	if t.disk == nil {
		return false
	}
	t.mu.Lock()
	ok := t.disk.freshen(url, expires)
	t.mu.Unlock()
	return ok
}

// Pin protects a RAM entry from eviction preference. A disk-resident
// entry has no eviction rank to protect; presence is still reported so
// callers treating false as "not cached" stay correct.
func (t *Tiered) Pin(url string, until, now int64) bool {
	if t.ram.Pin(url, until, now) {
		return true
	}
	return t.diskContains(url)
}

// Hint records a piggyback mention on a RAM entry (and pins it); for a
// disk-resident entry it reports presence.
func (t *Tiered) Hint(url string, until, now int64) bool {
	if t.ram.Hint(url, until, now) {
		return true
	}
	return t.diskContains(url)
}

func (t *Tiered) diskContains(url string) bool {
	if t.disk == nil {
		return false
	}
	t.mu.Lock()
	_, ok := t.disk.index[url]
	t.mu.Unlock()
	return ok
}

// ApplyPiggyback applies one piggyback element to whichever tier holds
// the entry: the RAM tier's shard-local critical section first, then the
// disk index. An entry invalidated in RAM takes its record with it; one
// refreshed in RAM leaves the record's older expiration alone (the next
// clean demotion raises it); on a RAM miss the record itself is
// invalidated or freshened. Between the two halves a promotion may have
// copied the record into RAM, so whenever the disk half finds a record
// it applies the element to RAM again, under the same t.mu section.
func (t *Tiered) ApplyPiggyback(url string, lastModified, freshenTo, pinUntil, now int64) cache.PiggybackOutcome {
	out := t.ram.ApplyPiggyback(url, lastModified, freshenTo, pinUntil, now)
	if t.disk == nil || out == cache.PiggybackRefreshed {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var found bool
	if out == cache.PiggybackInvalidated {
		found = t.disk.dropIndexed(url)
	} else {
		out = t.disk.applyPiggyback(url, lastModified, freshenTo)
		found = out != cache.PiggybackMiss
	}
	if found {
		t.ram.ApplyPiggyback(url, lastModified, freshenTo, pinUntil, now)
	}
	return out
}

// Stats folds the two tiers into one logical accounting: every disk hit
// was first counted as a RAM miss, so it moves from Misses to Hits —
// a lookup satisfied anywhere is exactly one hit.
func (t *Tiered) Stats() cache.StoreStats {
	s := t.ram.Stats()
	t.mu.Lock()
	defer t.mu.Unlock()
	s.Hits += t.promotions
	s.Misses -= t.promotions
	s.DiskHits = t.promotions
	s.Demotions = t.demotions
	s.CleanDemotions = t.demoteClean
	s.Promotions = t.promotions
	s.Compactions = t.compactions
	if t.disk != nil {
		s.DiskBytes = t.disk.bytes
	}
	return s
}

// Instrument registers the RAM tier's gauges plus the tier counters:
// prefix.tier.{demotions,demote_clean,promotions,disk_hits,disk_bytes,
// compactions}. Safe to call again with a fresh registry (a restarted
// proxy re-instruments the store it reopened).
func (t *Tiered) Instrument(reg *obs.Registry, prefix string) {
	t.ram.Instrument(reg, prefix)
	if t.disk == nil {
		return
	}
	c := &tierCounters{
		demotions:   reg.Counter(prefix + ".tier.demotions"),
		demoteClean: reg.Counter(prefix + ".tier.demote_clean"),
		promotions:  reg.Counter(prefix + ".tier.promotions"),
		diskHits:    reg.Counter(prefix + ".tier.disk_hits"),
		diskBytes:   reg.Counter(prefix + ".tier.disk_bytes"),
		compactions: reg.Counter(prefix + ".tier.compactions"),
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c.demotions.Add(t.demotions - c.demotions.Load())
	c.demoteClean.Add(t.demoteClean - c.demoteClean.Load())
	c.promotions.Add(t.promotions - c.promotions.Load())
	c.diskHits.Add(t.promotions - c.diskHits.Load())
	c.compactions.Add(t.compactions - c.compactions.Load())
	c.diskBytes.Add(t.disk.bytes - c.diskBytes.Load())
	t.obsC = c
}

// Capacity is the combined byte capacity of both tiers — an upper bound:
// the disk tier is inclusive, so a key resident in RAM and on disk
// occupies both.
func (t *Tiered) Capacity() int64 {
	c := t.ram.Capacity()
	if t.disk != nil {
		c += t.cfg.DiskBytes
	}
	return c
}

// Used is the bytes held across both tiers, a key resident in both
// counted once, at its RAM charge (disk counts live record bytes, not
// hole-laden file footprint).
func (t *Tiered) Used() int64 {
	_, bytes := t.diskOnly()
	return t.ram.Used() + bytes
}

// Len is the number of distinct keys across both tiers.
func (t *Tiered) Len() int {
	n, _ := t.diskOnly()
	return t.ram.Len() + n
}

// diskOnly counts the indexed records, and their bytes, whose key the RAM
// tier does not also hold.
func (t *Tiered) diskOnly() (n int, bytes int64) {
	if t.disk == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for url, l := range t.disk.index {
		if !t.ram.Contains(url) {
			n++
			bytes += l.n
		}
	}
	return n, bytes
}

// Close makes the store restart-warm: it detaches the eviction hook,
// flushes the entire RAM working set to disk (bypassing the demotion gate
// — on shutdown everything resident is the working set), snapshots the
// index, and closes the segment files.
func (t *Tiered) Close() error {
	var err error
	t.closed.Do(func() {
		if t.disk == nil {
			return
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		t.ram.SetEvictObserver(nil)
		for _, e := range t.ram.Dump() {
			t.demoteLocked(&e)
		}
		t.disk.maintain()
		err = t.disk.writeSnapshot()
		t.disk.closeFiles()
	})
	return err
}

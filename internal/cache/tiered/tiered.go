package tiered

import (
	"log"
	"math"
	"sync"
	"sync/atomic"

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
	// SegmentBytes is the rotation size of one append-only segment file;
	// zero means 4 MiB.
	SegmentBytes int64
	// CompactLiveRatio: a sealed segment whose live-byte ratio falls
	// below this is rewritten into the active segment (hole compaction);
	// zero means 0.5.
	CompactLiveRatio float64
	// QueueLen bounds the async demotion queue between the RAM tier's
	// eviction path and the disk writer; evictions arriving on a full
	// queue are dropped (counted), never blocked on. Zero means 256.
	QueueLen int
	// Demote decides whether an evicted entry is worth disk space. Nil
	// means DefaultDemote: keep entries the paper's policy machinery
	// showed utility for (hits, piggyback hints/pins, prefetches) —
	// GD-Size/PB-informed, not blind spill-everything.
	Demote func(e *cache.Entry, now int64) bool
	// Logf reports quarantines and I/O degradations; nil means log.Printf.
	Logf func(format string, args ...interface{})
}

// DefaultDemote keeps an evicted entry when the replacement machinery saw
// utility in it: it served hits, a piggyback message named it (hint) or
// pinned it, or it was prefetched on a server's prediction. Entries
// evicted without ever showing utility are the policy's losers (GD-Size
// aged them out, PB-LRU never protected them) and are not worth a disk
// write.
func DefaultDemote(e *cache.Entry, now int64) bool {
	return e.Hits() > 0 || e.HintCount() > 0 || e.PinnedUntil() > now || e.Prefetched
}

// demoteItem is one eviction crossing from the shard lock to the disk
// writer: a value copy of the entry (the body slice is shared — cached
// bodies are immutable once stored).
type demoteItem struct {
	e   cache.Entry
	now int64
	// seq orders the eviction against the invalidations of its key (see
	// demoteFloor).
	seq uint64
	// flush, when non-nil, marks a synchronization barrier instead of a
	// demotion: the writer closes it once every earlier item is on disk
	// and maintenance has run.
	flush chan struct{}
}

// demoteFloor is what an invalidation leaves for the writer. The demotion
// queue is asynchronous: an eviction queued before its key is replaced,
// deleted or named stale by a piggyback would otherwise be written after,
// and the old version served from disk. An eviction of the key stamped at
// or below seq whose LastModified is below lm is not written.
type demoteFloor struct {
	seq uint64
	lm  int64
}

// tierCounters mirrors the internal atomics into an obs registry
// (cache.tier.* when instrumented with prefix "cache").
type tierCounters struct {
	demotions   *obs.Counter
	demoteClean *obs.Counter
	promotions  *obs.Counter
	diskHits    *obs.Counter
	diskBytes   *obs.Counter
	compactions *obs.Counter
	drops       *obs.Counter
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
type Tiered struct {
	ram  *cache.Sharded
	cfg  Config
	disk *diskTier // nil in RAM-only mode

	mu sync.Mutex // guards disk and floor

	demoteQ chan demoteItem
	// seq stamps evictions and queued counts those the writer has not
	// finished, both under the evicting shard's lock — so once an
	// operation on a key has been through the RAM tier, every earlier
	// eviction of that key is stamped and counted.
	seq    atomic.Uint64
	queued atomic.Int64
	// floor holds one entry per key invalidated while evictions were
	// queued; the writer empties it when the queue drains.
	floor  map[string]demoteFloor
	stop   chan struct{}
	wg     sync.WaitGroup
	closed sync.Once

	demotions   atomic.Int64 // records written
	demoteClean atomic.Int64 // demotions that reused the indexed record
	promotions  atomic.Int64
	diskHits    atomic.Int64
	compactions atomic.Int64
	drops       atomic.Int64

	obsC atomic.Pointer[tierCounters]
}

var _ cache.Store = (*Tiered)(nil)

// New layers a disk tier under ram. With cfg.Dir == "" it returns a
// RAM-only wrapper (no files, no goroutine). Otherwise it opens the
// segment directory, loads the index snapshot when a valid one exists
// (restart-warm), installs the demotion hook on ram, and starts the
// background writer.
func New(ram *cache.Sharded, cfg Config) (*Tiered, error) {
	t, err := open(ram, cfg)
	if err == nil && t.disk != nil {
		t.startWriter()
	}
	return t, err
}

// open is New without the writer: evictions queue until startWriter.
func open(ram *cache.Sharded, cfg Config) (*Tiered, error) {
	if cfg.DiskBytes <= 0 {
		cfg.DiskBytes = 256 << 20
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 4 << 20
	}
	if cfg.CompactLiveRatio <= 0 {
		cfg.CompactLiveRatio = 0.5
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 256
	}
	if cfg.Demote == nil {
		cfg.Demote = DefaultDemote
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	t := &Tiered{ram: ram, cfg: cfg}
	if cfg.Dir == "" {
		return t, nil
	}
	disk, err := openDisk(cfg.Dir, cfg.DiskBytes, cfg.SegmentBytes, cfg.CompactLiveRatio, cfg.Logf)
	if err != nil {
		return nil, err
	}
	t.disk = disk
	t.demoteQ = make(chan demoteItem, cfg.QueueLen)
	t.floor = make(map[string]demoteFloor)
	t.stop = make(chan struct{})
	ram.SetEvictObserver(t.observeEvict)
	return t, nil
}

// startWriter starts the goroutine that drains the demotion queue.
func (t *Tiered) startWriter() {
	t.wg.Add(1)
	go t.writer()
}

// RAM exposes the RAM tier (tests and callers that need shard controls).
func (t *Tiered) RAM() *cache.Sharded { return t.ram }

// observeEvict runs under the evicting shard's lock: gate, copy, and a
// non-blocking channel send — the disk write happens on the writer
// goroutine so eviction never waits on I/O.
func (t *Tiered) observeEvict(e *cache.Entry, now int64) {
	if !t.cfg.Demote(e, now) {
		return
	}
	t.queued.Add(1)
	select {
	case t.demoteQ <- demoteItem{e: *e, now: now, seq: t.seq.Add(1)}:
		return
	case <-t.stop:
	default:
		t.drops.Add(1)
		if c := t.obsC.Load(); c != nil {
			c.drops.Inc()
		}
	}
	t.queued.Add(-1)
}

// writer drains the demotion queue and runs disk maintenance (capacity
// enforcement, hole compaction) off the serving path.
func (t *Tiered) writer() {
	defer t.wg.Done()
	for {
		select {
		case it := <-t.demoteQ:
			t.handle(it)
		case <-t.stop:
			for {
				select {
				case it := <-t.demoteQ:
					t.handle(it)
				default:
					return
				}
			}
		}
	}
}

// handle moves one evicted entry to disk, unless its key has been
// invalidated since it was queued. An unchanged promoted entry is a clean
// demotion: its record is still indexed, nothing is written and no
// maintenance is due.
func (t *Tiered) handle(it demoteItem) {
	if it.flush != nil {
		t.maintain()
		close(it.flush)
		return
	}
	t.mu.Lock()
	f := t.floor[it.e.URL]
	stale := it.seq <= f.seq && it.e.LastModified < f.lm
	clean := stale || t.demoteLocked(&it.e)
	if t.queued.Add(-1) == 0 {
		clear(t.floor)
	}
	t.mu.Unlock()
	if !clean {
		t.maintain()
	}
}

// Flush blocks until every demotion enqueued before the call is on disk
// (or was dropped) and maintenance has run — a barrier for tests and for
// reading consistent tier stats mid-run. RAM-only stores return
// immediately.
func (t *Tiered) Flush() {
	if t.disk == nil {
		return
	}
	ch := make(chan struct{})
	select {
	case t.demoteQ <- demoteItem{flush: ch}:
		select {
		case <-ch:
		case <-t.stop:
		}
	case <-t.stop:
	}
}

// demoteLocked stores e in the disk tier and counts the outcome. Caller
// holds t.mu.
func (t *Tiered) demoteLocked(e *cache.Entry) (clean bool) {
	written, clean := t.disk.demote(e)
	c := t.obsC.Load()
	switch {
	case clean:
		t.demoteClean.Add(1)
		if c != nil {
			c.demoteClean.Inc()
		}
	case written:
		t.demotions.Add(1)
		if c != nil {
			c.demotions.Inc()
		}
	}
	return clean
}

// maintain runs disk-tier upkeep and syncs the telemetry gauges.
func (t *Tiered) maintain() {
	t.mu.Lock()
	n := t.disk.maintain()
	bytes := t.disk.bytes
	t.mu.Unlock()
	if n > 0 {
		t.compactions.Add(int64(n))
	}
	if c := t.obsC.Load(); c != nil {
		if n > 0 {
			c.compactions.Add(int64(n))
		}
		c.diskBytes.Add(bytes - c.diskBytes.Load())
	}
}

// Lookup serves from RAM when possible; on a RAM miss it probes the disk
// index, and a disk hit promotes a copy of the entry into RAM (the Sharded
// tier re-runs its replacement policy; displaced entries may in turn
// demote). The record stays indexed, except a Prefetched one: the
// promotion clears the mark in RAM, so the record is consumed and
// WasPrefetched is reported once. Accounting: the RAM tier counted the
// miss, the disk hit re-classifies it — Stats() folds the two so one
// logical lookup counts once.
func (t *Tiered) Lookup(url string, now int64) (cache.View, bool) {
	if v, ok := t.ram.Lookup(url, now); ok {
		return v, true
	}
	if t.disk == nil {
		return cache.View{}, false
	}
	t.mu.Lock()
	e, ok := t.disk.get(url)
	if ok && e.Prefetched {
		t.disk.dropIndexed(url)
	}
	t.mu.Unlock()
	if !ok {
		return cache.View{}, false
	}
	t.diskHits.Add(1)
	t.promotions.Add(1)
	if c := t.obsC.Load(); c != nil {
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
	}
	// Promote: the RAM tier re-runs its replacement policy on insert, so
	// the promoted entry lands as a just-used entry.
	t.ram.Put(e, now)
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
	if t.ram.Contains(url) {
		return true
	}
	if t.disk == nil {
		return false
	}
	t.mu.Lock()
	_, ok := t.disk.index[url]
	t.mu.Unlock()
	return ok
}

// Put inserts into the RAM tier (demotion of displaced entries happens
// via the eviction hook). The disk record of the same URL is dropped so
// the tiers never disagree about a key's version — after the insert, so
// that an eviction of the version it replaces is already queued.
func (t *Tiered) Put(e cache.Entry, now int64) []string {
	evicted := t.ram.Put(e, now)
	t.dropRecord(e.URL)
	return evicted
}

// Delete removes url from both tiers. Deletion is invalidation: the disk
// copy is dropped, not demoted to.
func (t *Tiered) Delete(url string) bool {
	ok := t.ram.Delete(url)
	return t.dropRecord(url) || ok
}

// dropRecord removes url's disk record, and keeps queued evictions of url
// from becoming one. It reports whether there was a record. The caller has
// been through the RAM tier with url first.
func (t *Tiered) dropRecord(url string) bool {
	if t.disk == nil {
		return false
	}
	t.mu.Lock()
	ok := t.disk.dropIndexed(url)
	t.floorLocked(url, math.MaxInt64)
	t.mu.Unlock()
	return ok
}

// floorLocked keeps the evictions of url queued so far, of versions older
// than lm, off the disk. Caller holds t.mu.
func (t *Tiered) floorLocked(url string, lm int64) {
	if t.queued.Load() > 0 {
		t.floor[url] = demoteFloor{seq: t.seq.Load(), lm: max(lm, t.floor[url].lm)}
	}
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
// invalidated or freshened.
func (t *Tiered) ApplyPiggyback(url string, lastModified, freshenTo, pinUntil, now int64) cache.PiggybackOutcome {
	out := t.ram.ApplyPiggyback(url, lastModified, freshenTo, pinUntil, now)
	if t.disk == nil {
		return out
	}
	switch out {
	case cache.PiggybackInvalidated:
		t.dropRecord(url)
	case cache.PiggybackMiss:
		t.mu.Lock()
		out = t.disk.applyPiggyback(url, lastModified, freshenTo)
		if out != cache.PiggybackRefreshed {
			// No record, or an outdated one: the copy may be in the queue.
			t.floorLocked(url, lastModified)
		}
		t.mu.Unlock()
	}
	return out
}

// Stats folds the two tiers into one logical accounting: every disk hit
// was first counted as a RAM miss, so it moves from Misses to Hits —
// a lookup satisfied anywhere is exactly one hit.
func (t *Tiered) Stats() cache.StoreStats {
	s := t.ram.Stats()
	dh := t.diskHits.Load()
	s.Hits += dh
	s.Misses -= dh
	s.DiskHits = dh
	s.Demotions = t.demotions.Load()
	s.CleanDemotions = t.demoteClean.Load()
	s.Promotions = t.promotions.Load()
	s.Compactions = t.compactions.Load()
	if t.disk != nil {
		t.mu.Lock()
		s.DiskBytes = t.disk.bytes
		t.mu.Unlock()
	}
	return s
}

// HitRate returns the tier-folded hit rate.
func (t *Tiered) HitRate() float64 { return t.Stats().HitRate() }

// Instrument registers the RAM tier's gauges plus the tier counters:
// prefix.tier.{demotions,demote_clean,promotions,disk_hits,disk_bytes,
// compactions,demote_drops}. Safe to call again with a fresh registry (a
// restarted proxy re-instruments the store it reopened).
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
		drops:       reg.Counter(prefix + ".tier.demote_drops"),
	}
	c.demotions.Add(t.demotions.Load() - c.demotions.Load())
	c.demoteClean.Add(t.demoteClean.Load() - c.demoteClean.Load())
	c.promotions.Add(t.promotions.Load() - c.promotions.Load())
	c.diskHits.Add(t.diskHits.Load() - c.diskHits.Load())
	c.compactions.Add(t.compactions.Load() - c.compactions.Load())
	c.drops.Add(t.drops.Load() - c.drops.Load())
	t.mu.Lock()
	bytes := t.disk.bytes
	t.mu.Unlock()
	c.diskBytes.Add(bytes - c.diskBytes.Load())
	t.obsC.Store(c)
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
// drains the demotion queue, flushes the entire RAM working set to disk
// (bypassing the demotion gate — on shutdown everything resident is the
// working set), snapshots the index, and closes the segment files.
func (t *Tiered) Close() error {
	var err error
	t.closed.Do(func() {
		t.ram.SetEvictObserver(nil)
		if t.disk == nil {
			return
		}
		close(t.stop)
		t.wg.Wait()
		t.mu.Lock()
		defer t.mu.Unlock()
		for _, e := range t.ram.Dump() {
			t.demoteLocked(&e)
		}
		t.disk.maintain()
		err = t.disk.writeSnapshot()
		t.disk.closeFiles()
	})
	return err
}

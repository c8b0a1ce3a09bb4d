// Package tiered layers an append-only segment-file disk tier under the
// sharded RAM cache, behind the cache.Store interface: RAM evictions the
// replacement policy judged worth keeping are *demoted* to disk, a disk
// hit is *promoted* back to RAM and served without an origin fetch, and
// the in-memory index snapshots on shutdown so a restarted proxy re-opens
// its segments and serves warm instead of stampeding the origin
// (ROADMAP item 4; sizing follows the proxy-cache construction papers in
// PAPERS.md). The disk tier is inclusive: a promoted entry keeps its
// record, so evicting it from RAM again unchanged costs an index update,
// not a write, and the object survives even when the demotion gate would
// refuse it.
package tiered

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"piggyback/internal/cache"
)

// Segment files hold a sequence of CRC-framed records:
//
//	magic   u32  recMagic
//	urlLen  u32
//	ctLen   u32  (Content-Type)
//	lmdLen  u32  (pre-rendered Last-Modified HTTP date)
//	bodyLen u32
//	size    i64  (capacity charge; may exceed len(body) in testbeds)
//	lm      i64  (Last-Modified)
//	expires i64
//	fetched i64
//	flags   u8   (bit0: prefetched)
//	url, ct, lmDate, body bytes
//	crc     u32  IEEE over everything between magic and crc
//
// Records are immutable once written; replacing, deleting or invalidating
// an entry leaves a hole, and segments whose live ratio drops below the
// compaction threshold are rewritten into the active segment.

const (
	recMagic  = 0x50475631 // "PGV1"
	recHdrLen = 4 + 4*4 + 8*4 + 1
	recTail   = 4 // trailing CRC
	// compactLiveRatio: a sealed segment whose live bytes fall below this
	// fraction of its size is rewritten into the active segment.
	compactLiveRatio = 0.5
)

// loc is one index entry: where a record lives and the freshness state
// piggyback processing may update without rewriting the record.
type loc struct {
	seg     int
	off     int64
	n       int64 // full record length in bytes
	size    int64 // Entry.Size (capacity charge)
	lm      int64
	expires int64
	// reported: a promotion has reported the record's prefetch mark, so
	// get hands the record out unmarked. Kept in memory only; entries
	// loaded from a snapshot start with it set.
	reported bool
}

// segment is one append-only file. live tracks the bytes of records still
// referenced by the index; the difference to size is reclaimable holes.
type segment struct {
	id   int
	f    *os.File
	size int64
	live int64
}

// diskTier is the on-disk half of a Tiered store. One mutex guards it:
// disk operations are off the RAM-hit path, and serializing them keeps
// the append-only invariants trivial.
type diskTier struct {
	dir      string
	capBytes int64
	segBytes int64
	logf     func(format string, args ...interface{})

	index  map[string]loc
	segs   map[int]*segment
	cur    *segment
	nextID int
	bytes  int64 // sum of segment sizes (the disk footprint)
	enc    []byte
}

func segName(id int) string { return fmt.Sprintf("seg-%06d.dat", id) }

// openDisk opens (or creates) the tier in dir, loading the index snapshot
// when a valid one exists. Corruption never fails the open: a truncated
// segment is quarantined, a corrupt snapshot is logged and ignored, and
// the proxy serves cold for whatever was lost.
func openDisk(dir string, capBytes, segBytes int64, logf func(string, ...interface{})) (*diskTier, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &diskTier{
		dir:      dir,
		capBytes: capBytes,
		segBytes: segBytes,
		logf:     logf,
		index:    make(map[string]loc),
		segs:     make(map[int]*segment),
	}
	// Any existing segment bumps the id floor, referenced by the
	// snapshot or not, so a fresh active segment never collides.
	if matches, _ := filepath.Glob(filepath.Join(dir, "seg-*.dat")); len(matches) > 0 {
		for _, m := range matches {
			var id int
			if _, err := fmt.Sscanf(filepath.Base(m), "seg-%06d.dat", &id); err == nil && id >= d.nextID {
				d.nextID = id + 1
			}
		}
	}
	d.loadSnapshot()
	// Orphaned segments (present on disk, referenced by no loaded index
	// entry) are unreachable; quarantine them rather than deleting data.
	if matches, _ := filepath.Glob(filepath.Join(dir, "seg-*.dat")); len(matches) > 0 {
		for _, m := range matches {
			var id int
			if _, err := fmt.Sscanf(filepath.Base(m), "seg-%06d.dat", &id); err != nil {
				continue
			}
			if _, ok := d.segs[id]; !ok {
				d.quarantineFile(m, "orphaned (not in index snapshot)")
			}
		}
	}
	if err := d.newSegment(); err != nil {
		d.closeFiles()
		return nil, err
	}
	return d, nil
}

func (d *diskTier) quarantineFile(path, why string) {
	q := path + ".quarantined"
	if err := os.Rename(path, q); err != nil {
		d.logf("tiered: quarantine %s (%s): rename failed: %v", filepath.Base(path), why, err)
		return
	}
	d.logf("tiered: quarantined %s: %s", filepath.Base(path), why)
}

// newSegment starts a fresh active segment.
func (d *diskTier) newSegment() error {
	id := d.nextID
	d.nextID++
	f, err := os.OpenFile(filepath.Join(d.dir, segName(id)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	s := &segment{id: id, f: f}
	d.segs[id] = s
	d.cur = s
	return nil
}

// encode serializes e into d.enc (reused across calls) and returns it.
func (d *diskTier) encode(e *cache.Entry) []byte {
	n := recHdrLen + len(e.URL) + len(e.ContentType) + len(e.LastModifiedHTTP) + len(e.Body) + recTail
	if cap(d.enc) < n {
		d.enc = make([]byte, n)
	}
	b := d.enc[:n]
	binary.LittleEndian.PutUint32(b[0:], recMagic)
	binary.LittleEndian.PutUint32(b[4:], uint32(len(e.URL)))
	binary.LittleEndian.PutUint32(b[8:], uint32(len(e.ContentType)))
	binary.LittleEndian.PutUint32(b[12:], uint32(len(e.LastModifiedHTTP)))
	binary.LittleEndian.PutUint32(b[16:], uint32(len(e.Body)))
	binary.LittleEndian.PutUint64(b[20:], uint64(e.Size))
	binary.LittleEndian.PutUint64(b[28:], uint64(e.LastModified))
	binary.LittleEndian.PutUint64(b[36:], uint64(e.Expires))
	binary.LittleEndian.PutUint64(b[44:], uint64(e.FetchedAt))
	var flags byte
	if e.Prefetched {
		flags |= 1
	}
	b[52] = flags
	p := recHdrLen
	p += copy(b[p:], e.URL)
	p += copy(b[p:], e.ContentType)
	p += copy(b[p:], e.LastModifiedHTTP)
	p += copy(b[p:], e.Body)
	binary.LittleEndian.PutUint32(b[p:], crc32.ChecksumIEEE(b[4:p]))
	return b
}

// decode parses one record. It returns false on any framing or CRC
// mismatch; the caller drops the index entry. The returned Body aliases b:
// the caller hands over the buffer and must not reuse it.
func decode(b []byte) (cache.Entry, bool) {
	if len(b) < recHdrLen+recTail || binary.LittleEndian.Uint32(b[0:]) != recMagic {
		return cache.Entry{}, false
	}
	urlLen := int(binary.LittleEndian.Uint32(b[4:]))
	ctLen := int(binary.LittleEndian.Uint32(b[8:]))
	lmdLen := int(binary.LittleEndian.Uint32(b[12:]))
	bodyLen := int(binary.LittleEndian.Uint32(b[16:]))
	want := recHdrLen + urlLen + ctLen + lmdLen + bodyLen + recTail
	if urlLen < 0 || ctLen < 0 || lmdLen < 0 || bodyLen < 0 || len(b) != want {
		return cache.Entry{}, false
	}
	p := want - recTail
	if crc32.ChecksumIEEE(b[4:p]) != binary.LittleEndian.Uint32(b[p:]) {
		return cache.Entry{}, false
	}
	e := cache.Entry{
		Size:         int64(binary.LittleEndian.Uint64(b[20:])),
		LastModified: int64(binary.LittleEndian.Uint64(b[28:])),
		Expires:      int64(binary.LittleEndian.Uint64(b[36:])),
		FetchedAt:    int64(binary.LittleEndian.Uint64(b[44:])),
		Prefetched:   b[52]&1 != 0,
	}
	p = recHdrLen
	e.URL = string(b[p : p+urlLen])
	p += urlLen
	e.ContentType = string(b[p : p+ctLen])
	p += ctLen
	e.LastModifiedHTTP = string(b[p : p+lmdLen])
	p += lmdLen
	e.Body = b[p : p+bodyLen : p+bodyLen]
	return e, true
}

// append writes e to the active segment and indexes it. A record that
// alone exceeds the disk capacity is refused. An existing copy of the URL
// becomes a hole.
func (d *diskTier) append(e *cache.Entry) bool {
	rec := d.encode(e)
	n := int64(len(rec))
	if n > d.capBytes {
		return false
	}
	if d.cur.size > 0 && d.cur.size+n > d.segBytes {
		if err := d.newSegment(); err != nil {
			d.logf("tiered: segment rotation failed: %v", err)
			return false
		}
	}
	if _, err := d.cur.f.WriteAt(rec, d.cur.size); err != nil {
		d.logf("tiered: append to %s failed: %v", segName(d.cur.id), err)
		return false
	}
	d.dropIndexed(e.URL)
	d.index[e.URL] = loc{
		seg: d.cur.id, off: d.cur.size, n: n,
		size: e.Size, lm: e.LastModified, expires: e.Expires,
	}
	d.cur.size += n
	d.cur.live += n
	d.bytes += n
	return true
}

// dropIndexed removes url from the index, turning its record into a hole.
func (d *diskTier) dropIndexed(url string) bool {
	l, ok := d.index[url]
	if !ok {
		return false
	}
	delete(d.index, url)
	if s, ok := d.segs[l.seg]; ok {
		s.live -= l.n
	}
	return true
}

// get reads the record for url, leaving it indexed. A CRC or framing
// failure drops the entry and reads as a miss — never a panic.
func (d *diskTier) get(url string) (cache.Entry, bool) {
	l, ok := d.index[url]
	if !ok {
		return cache.Entry{}, false
	}
	s, ok := d.segs[l.seg]
	if !ok {
		delete(d.index, url)
		return cache.Entry{}, false
	}
	buf := make([]byte, l.n)
	if _, err := s.f.ReadAt(buf, l.off); err != nil {
		d.dropIndexed(url)
		d.logf("tiered: read %s@%d+%d failed: %v", segName(l.seg), l.off, l.n, err)
		return cache.Entry{}, false
	}
	e, ok := decode(buf)
	if !ok || e.URL != url {
		d.dropIndexed(url)
		d.logf("tiered: corrupt record for %s in %s@%d", url, segName(l.seg), l.off)
		return cache.Entry{}, false
	}
	// The index owns freshness: piggyback refreshes update it without
	// rewriting the record.
	e.Expires = l.expires
	e.LastModified = l.lm
	if l.reported {
		e.Prefetched = false
	}
	return e, true
}

// report marks url's prefetch as reported (see loc.reported).
func (d *diskTier) report(url string) {
	if l, ok := d.index[url]; ok {
		l.reported = true
		d.index[url] = l
	}
}

// demote stores e, an entry leaving the RAM tier. When the index already
// holds this version — a promoted entry coming back unchanged — the record
// is reused: only the indexed expiration is raised to the RAM copy's, and
// clean is true. Any other entry is appended.
func (d *diskTier) demote(e *cache.Entry) (written, clean bool) {
	if l, ok := d.index[e.URL]; ok && l.lm == e.LastModified {
		d.freshen(e.URL, e.Expires)
		return false, true
	}
	return d.append(e), false
}

// freshen extends the indexed expiration.
func (d *diskTier) freshen(url string, expires int64) bool {
	l, ok := d.index[url]
	if !ok {
		return false
	}
	if expires > l.expires {
		l.expires = expires
		d.index[url] = l
	}
	return true
}

// applyPiggyback is the disk half of Store.ApplyPiggyback: invalidate an
// outdated copy or freshen a current one. Replacement hints only matter
// in RAM, where the policy lives.
func (d *diskTier) applyPiggyback(url string, lastModified, freshenTo int64) cache.PiggybackOutcome {
	l, ok := d.index[url]
	if !ok {
		return cache.PiggybackMiss
	}
	if lastModified > l.lm {
		d.dropIndexed(url)
		return cache.PiggybackInvalidated
	}
	if freshenTo > l.expires {
		l.expires = freshenTo
		d.index[url] = l
	}
	return cache.PiggybackRefreshed
}

// maintain enforces the disk capacity (oldest sealed segment dropped
// whole — append order approximates demotion order) and compacts sealed
// segments whose live ratio fell below the threshold. Returns the number
// of compactions performed.
func (d *diskTier) maintain() int {
	for d.bytes > d.capBytes {
		victim := d.oldestSealed()
		if victim == nil {
			break
		}
		d.removeSegment(victim, true)
	}
	compacted := 0
	for {
		var target *segment
		for _, s := range d.segs {
			if s == d.cur {
				continue
			}
			if float64(s.live) < float64(s.size)*compactLiveRatio {
				target = s
				break
			}
		}
		if target == nil {
			break
		}
		d.compact(target)
		compacted++
	}
	return compacted
}

func (d *diskTier) oldestSealed() *segment {
	var victim *segment
	for _, s := range d.segs {
		if s == d.cur {
			continue
		}
		if victim == nil || s.id < victim.id {
			victim = s
		}
	}
	return victim
}

// removeSegment drops s and (dropIndex) every index entry pointing at it.
func (d *diskTier) removeSegment(s *segment, dropIndex bool) {
	if dropIndex {
		for url, l := range d.index {
			if l.seg == s.id {
				delete(d.index, url)
			}
		}
	}
	d.bytes -= s.size
	delete(d.segs, s.id)
	s.f.Close()
	os.Remove(filepath.Join(d.dir, segName(s.id)))
}

// compact rewrites s's live records into the active segment and removes
// s. Records that fail their CRC on the way through are dropped.
func (d *diskTier) compact(s *segment) {
	type liveRec struct {
		url string
		l   loc
	}
	var recs []liveRec
	for url, l := range d.index {
		if l.seg == s.id {
			recs = append(recs, liveRec{url, l})
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].l.off < recs[j].l.off })
	for _, r := range recs {
		// A record that cannot move (unreadable, or the append failed) is
		// dropped with its segment.
		if e, ok := d.get(r.url); !ok || !d.append(&e) {
			d.dropIndexed(r.url)
		}
	}
	d.removeSegment(s, false)
}

func (d *diskTier) closeFiles() {
	for _, s := range d.segs {
		s.f.Close()
	}
}

// --- index snapshot ----------------------------------------------------
//
// The snapshot follows internal/core/persist.go's line-oriented text
// idiom (magic line, typed records, line-numbered errors on load):
//
//	pvtier 1
//	S <segment-id> <byte-size>
//	E <segment-id> <offset> <record-len> <size> <lm> <expires> <url>
//
// S lines declare segments with their expected sizes; E lines declare
// index entries into previously declared segments. URLs are
// strconv-quoted (last field, so the line splits on the first 7 spaces).

const snapMagic = "pvtier 1"

func (d *diskTier) snapPath() string { return filepath.Join(d.dir, "index.snap") }

// writeSnapshot persists the index atomically (temp file + rename).
func (d *diskTier) writeSnapshot() error {
	tmp := d.snapPath() + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", snapMagic)
	ids := make([]int, 0, len(d.segs))
	for id := range d.segs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(&sb, "S %d %d\n", id, d.segs[id].size)
	}
	urls := make([]string, 0, len(d.index))
	for url := range d.index {
		urls = append(urls, url)
	}
	sort.Strings(urls)
	for _, url := range urls {
		l := d.index[url]
		fmt.Fprintf(&sb, "E %d %d %d %d %d %d %s\n",
			l.seg, l.off, l.n, l.size, l.lm, l.expires, strconv.Quote(url))
	}
	if _, err := f.WriteString(sb.String()); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, d.snapPath())
}

// loadSnapshot reads the index snapshot, validating every entry against
// the segment files actually on disk. All failure modes degrade to
// serving cold: a corrupt snapshot is ignored, a truncated or missing
// segment is quarantined and its entries dropped, an entry pointing past
// its segment's end is dropped.
func (d *diskTier) loadSnapshot() {
	data, err := os.ReadFile(d.snapPath())
	if err != nil {
		if !os.IsNotExist(err) {
			d.logf("tiered: index snapshot unreadable, serving cold: %v", err)
		}
		return
	}
	lines := strings.Split(string(data), "\n")
	lineNo := 0
	fail := func(msg string, args ...interface{}) {
		d.logf("tiered: index snapshot line %d: %s — serving cold", lineNo, fmt.Sprintf(msg, args...))
		// Abandon everything loaded so far; records remain on disk for
		// forensics but nothing references them (open() quarantines the
		// now-orphaned segments).
		for _, s := range d.segs {
			s.f.Close()
		}
		d.index = make(map[string]loc)
		d.segs = make(map[int]*segment)
		d.bytes = 0
	}
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != snapMagic {
		lineNo = 1
		fail("bad magic %q", strings.TrimSpace(lines[0]))
		return
	}
	sizes := make(map[int]int64) // declared sizes, for truncation checks
	for i := 1; i < len(lines); i++ {
		lineNo = i + 1
		s := strings.TrimSpace(lines[i])
		if s == "" {
			continue
		}
		switch {
		case strings.HasPrefix(s, "S "):
			var id int
			var size int64
			if _, err := fmt.Sscanf(s, "S %d %d", &id, &size); err != nil || size < 0 {
				fail("bad S line %q", s)
				return
			}
			if _, dup := d.segs[id]; dup {
				fail("segment %d declared twice", id)
				return
			}
			path := filepath.Join(d.dir, segName(id))
			st, err := os.Stat(path)
			if err != nil {
				d.logf("tiered: segment %s in snapshot but missing on disk, dropped", segName(id))
				continue
			}
			if st.Size() < size {
				// Truncated mid-write (crash): quarantine the file and
				// serve its entries cold.
				d.quarantineFile(path, fmt.Sprintf("truncated: %d < declared %d bytes", st.Size(), size))
				continue
			}
			f, err := os.OpenFile(path, os.O_RDWR, 0o644)
			if err != nil {
				d.logf("tiered: segment %s unopenable: %v", segName(id), err)
				continue
			}
			d.segs[id] = &segment{id: id, f: f, size: size}
			d.bytes += size
			sizes[id] = size
		case strings.HasPrefix(s, "E "):
			parts := strings.SplitN(s, " ", 8)
			if len(parts) != 8 {
				fail("bad E line %q", s)
				return
			}
			// The reported bits were not saved: count every prefetch as
			// reported, so none is counted twice.
			l := loc{reported: true}
			var errs [6]error
			l.seg, errs[0] = strconv.Atoi(parts[1])
			l.off, errs[1] = strconv.ParseInt(parts[2], 10, 64)
			l.n, errs[2] = strconv.ParseInt(parts[3], 10, 64)
			l.size, errs[3] = strconv.ParseInt(parts[4], 10, 64)
			l.lm, errs[4] = strconv.ParseInt(parts[5], 10, 64)
			l.expires, errs[5] = strconv.ParseInt(parts[6], 10, 64)
			for _, e := range errs {
				if e != nil {
					fail("bad E values %q", s)
					return
				}
			}
			url, err := strconv.Unquote(parts[7])
			if err != nil || l.off < 0 || l.n <= 0 {
				fail("bad E values %q", s)
				return
			}
			seg, ok := d.segs[l.seg]
			if !ok {
				continue // segment quarantined or missing
			}
			if _, dup := d.index[url]; dup {
				fail("%s indexed twice", url)
				return
			}
			if l.n > sizes[l.seg]-l.off { // l.off+l.n could overflow
				d.logf("tiered: entry %s points past %s end, dropped", url, segName(l.seg))
				continue
			}
			d.index[url] = l
			seg.live += l.n
		default:
			fail("unknown record %q", s)
			return
		}
	}
}

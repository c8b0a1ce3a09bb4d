package tiered

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"piggyback/internal/cache"
)

// sameEntry compares what a record stores of an entry.
func sameEntry(a, b cache.Entry) bool {
	return a.URL == b.URL && a.Size == b.Size && a.LastModified == b.LastModified &&
		a.Expires == b.Expires && a.FetchedAt == b.FetchedAt && a.ContentType == b.ContentType &&
		a.LastModifiedHTTP == b.LastModifiedHTTP && a.Prefetched == b.Prefetched && bytes.Equal(a.Body, b.Body)
}

// FuzzRecordDecode: decode never panics, whatever the bytes; an entry
// survives encode then decode; and a valid record with one byte changed
// never decodes to a different entry. The seeds are a valid record and the
// crash suite's damage to one: truncated, a body byte flipped, a bad magic.
func FuzzRecordDecode(f *testing.F) {
	var d diskTier
	e := entry("http://o/c00", 512, 1000)
	rec := bytes.Clone(d.encode(&e))
	body := recHdrLen + len(e.URL) + 40 // the byte TestCrashBitFlippedRecord flips
	flipped := bytes.Clone(rec)
	flipped[body] ^= 0xFF
	badMagic := bytes.Clone(rec)
	badMagic[0] ^= 0xFF
	for _, raw := range [][]byte{rec, rec[:len(rec)/2], flipped, badMagic} {
		f.Add(raw, e.URL, e.ContentType, e.LastModifiedHTTP, e.Body, e.Size, e.LastModified, e.Expires, e.FetchedAt, true, uint(body), byte(0xFF))
	}
	f.Fuzz(func(t *testing.T, raw []byte, url, ct, lmDate string, body []byte,
		size, lm, expires, fetched int64, prefetched bool, pos uint, flip byte) {
		decode(raw)
		want := cache.Entry{
			URL: url, Size: size, LastModified: lm, Expires: expires, FetchedAt: fetched,
			Body: body, ContentType: ct, LastModifiedHTTP: lmDate, Prefetched: prefetched,
		}
		var d diskTier
		rec := d.encode(&want)
		if got, ok := decode(rec); !ok || !sameEntry(got, want) {
			t.Fatalf("decode(encode(e)) = %+v, %v; want %+v", got, ok, want)
		}
		if flip == 0 {
			return
		}
		rec[pos%uint(len(rec))] ^= flip
		if got, ok := decode(rec); ok && !sameEntry(got, want) {
			t.Fatalf("byte %d ^ %#x decoded to another entry: %+v", pos%uint(len(rec)), flip, got)
		}
	})
}

// FuzzLoadSnapshot opens a store over two real segments and an arbitrary
// index.snap. Opening never panics; every indexed record lies inside its
// segment, and the segments' byte and live-byte counts are what the index
// and the files say; every Lookup misses or serves exactly the body written
// for its URL. The seeds are the real snapshot and the crash suite's damage
// to it: a bad magic line, a garbled entry line, a truncation at 70 %.
func FuzzLoadSnapshot(f *testing.F) {
	src := f.TempDir()
	now := int64(1000)
	ts := newTiered(f, src, 1<<20, Config{SegmentBytes: 4096})
	bodies := make(map[string][]byte)
	for i := 0; i < 8; i++ {
		e := entry(fmt.Sprintf("http://o/c%02d", i), 512, now)
		ts.Put(e, now)
		bodies[e.URL] = e.Body
	}
	if err := ts.Close(); err != nil {
		f.Fatal(err)
	}
	segs := make(map[string][]byte)
	names, _ := filepath.Glob(filepath.Join(src, "seg-*.dat"))
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		segs[filepath.Base(name)] = b
	}
	if len(segs) != 2 {
		f.Fatalf("want 2 segments to load against, got %d", len(segs))
	}
	snap, err := os.ReadFile(filepath.Join(src, "index.snap"))
	if err != nil {
		f.Fatal(err)
	}
	lines := strings.Split(string(snap), "\n")
	withLine := func(i int, s string) []byte {
		l := append([]string(nil), lines...)
		l[i] = s
		return []byte(strings.Join(l, "\n"))
	}
	f.Add(snap)
	f.Add(withLine(0, "pvtier 999"))
	f.Add(withLine(2, "E not numbers at all"))
	f.Add(snap[:len(snap)*7/10])

	f.Fuzz(func(t *testing.T, snap []byte) {
		dir := t.TempDir()
		for name, b := range segs {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "index.snap"), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		ts, err := New(cache.NewSharded(1<<20, 1, nil), Config{
			Dir: dir, SegmentBytes: 4096, Logf: func(string, ...interface{}) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ts.Close()

		urls, err := checkIndex(ts)
		if err != nil {
			t.Fatal(err)
		}
		for url := range bodies {
			urls = append(urls, url)
		}
		sort.Strings(urls)
		for _, url := range urls {
			if v, ok := ts.Lookup(url, now); ok && !bytes.Equal(v.Body, bodies[url]) {
				t.Fatalf("Lookup(%q) served %d bytes that were not written for it", url, len(v.Body))
			}
		}
	})
}

// checkIndex returns the indexed URLs, or the first way the disk tier's
// index and byte counts disagree with its segments.
func checkIndex(ts *Tiered) ([]string, error) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	d := ts.disk
	var bytesTotal int64
	for id, s := range d.segs {
		st, err := s.f.Stat()
		if err != nil || st.Size() < s.size {
			return nil, fmt.Errorf("segment %d: declared %d bytes, file: %v %v", id, s.size, st, err)
		}
		bytesTotal += s.size
	}
	if bytesTotal != d.bytes {
		return nil, fmt.Errorf("disk bytes %d, segments hold %d", d.bytes, bytesTotal)
	}
	live := make(map[int]int64)
	urls := make([]string, 0, len(d.index))
	for url, l := range d.index {
		s, ok := d.segs[l.seg]
		if !ok || l.off < 0 || l.n <= 0 || l.off > s.size || l.n > s.size-l.off {
			return nil, fmt.Errorf("%q indexed at %+v, outside its segment", url, l)
		}
		live[l.seg] += l.n
		urls = append(urls, url)
	}
	for id, s := range d.segs {
		if s.live != live[id] {
			return nil, fmt.Errorf("segment %d: live %d, index holds %d", id, s.live, live[id])
		}
	}
	return urls, nil
}

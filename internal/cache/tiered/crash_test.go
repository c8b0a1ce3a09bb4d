package tiered

// Crash-safety suite (faultconn-style deterministic corruption, applied
// to files instead of sockets): every scenario corrupts on-disk state
// between a clean Close and a reopen, then asserts the store starts,
// logs, quarantines or drops what it cannot trust, and serves cold for
// the damaged keys — never panics, never serves a corrupt body.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// populate fills dir with n disk-resident entries and returns their URLs.
func populate(t *testing.T, dir string, n int) []string {
	t.Helper()
	ts := newTiered(t, dir, 1<<20, Config{segmentBytes: 4096})
	now := int64(1000)
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://o/c%02d", i)
		ts.Put(entry(urls[i], 512, now), now)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	return urls
}

// segFiles returns the segment files in dir, sorted by name (= by id).
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "seg-*.dat"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(m)
	if len(m) == 0 {
		t.Fatal("populate produced no segment files")
	}
	return m
}

// truncateFile chops the file to frac of its size — a torn write or a
// crash mid-append.
func truncateFile(t *testing.T, path string, frac float64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, int64(float64(fi.Size())*frac)); err != nil {
		t.Fatal(err)
	}
}

// flipByte XORs one byte at off — bit rot inside a record body.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// reopenLogged reopens dir collecting log output.
func reopenLogged(t *testing.T, dir string) (*Tiered, *[]string) {
	t.Helper()
	var logs []string
	ts := newTiered(t, dir, 1<<20, Config{
		segmentBytes: 4096,
		logf: func(format string, args ...interface{}) {
			logs = append(logs, fmt.Sprintf(format, args...))
		},
	})
	return ts, &logs
}

// TestCrashTruncatedSegment: a segment shorter than the snapshot declared
// is quarantined on startup; its entries serve cold, other segments stay
// warm, and nothing panics.
func TestCrashTruncatedSegment(t *testing.T) {
	dir := t.TempDir()
	urls := populate(t, dir, 20)
	segs := segFiles(t, dir)
	if len(segs) < 2 {
		t.Fatalf("need ≥2 segments to isolate damage, got %d", len(segs))
	}
	truncateFile(t, segs[0], 0.5)

	ts, logs := reopenLogged(t, dir)
	defer ts.Close()
	if _, err := os.Stat(segs[0] + ".quarantined"); err != nil {
		t.Fatalf("truncated segment not quarantined: %v", err)
	}
	if _, err := os.Stat(segs[0]); !os.IsNotExist(err) {
		t.Fatal("truncated segment still present under its live name")
	}
	warm, cold := 0, 0
	for _, u := range urls {
		if _, ok := ts.Lookup(u, 2000); ok {
			warm++
		} else {
			cold++
		}
	}
	if cold == 0 {
		t.Fatal("quarantine dropped nothing — truncation was not exercised")
	}
	if warm == 0 {
		t.Fatal("quarantine of one segment went cold for everything")
	}
	if !logContains(*logs, "quarantin") {
		t.Fatalf("quarantine not logged: %q", *logs)
	}
}

// TestCrashCorruptSnapshot: an unreadable index snapshot means the store
// cannot trust any of the disk state — it logs, starts cold, and keeps
// working (new demotions land in fresh segments).
func TestCrashCorruptSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, snap string)
	}{
		{"bad-magic", func(t *testing.T, snap string) {
			rewriteLine(t, snap, 0, "pvtier 999")
		}},
		{"garbled-entry", func(t *testing.T, snap string) {
			rewriteLine(t, snap, 2, "E not numbers at all")
		}},
		{"truncated-mid-line", func(t *testing.T, snap string) {
			truncateFile(t, snap, 0.7)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			urls := populate(t, dir, 8)
			snap := filepath.Join(dir, "index.snap")
			tc.corrupt(t, snap)

			ts, logs := reopenLogged(t, dir)
			defer ts.Close()
			for _, u := range urls {
				if _, ok := ts.Lookup(u, 2000); ok {
					t.Fatalf("%s served from untrusted disk state", u)
				}
			}
			if len(*logs) == 0 {
				t.Fatal("corrupt snapshot not logged")
			}
			// The store must still function as a cold tiered cache.
			now := int64(3000)
			ts.Put(entry("http://o/new", 512, now), now)
			if _, ok := ts.Lookup("http://o/new", now); !ok {
				t.Fatal("store unusable after cold start")
			}
		})
	}
}

// TestCrashBitFlippedRecord: a flipped byte inside a record body fails
// the CRC on read; the entry turns into a cold miss (and is dropped from
// the index), not a corrupt response.
func TestCrashBitFlippedRecord(t *testing.T) {
	dir := t.TempDir()
	urls := populate(t, dir, 4)
	segs := segFiles(t, dir)
	// Flip a byte well inside the first record's body (past the 53-byte
	// header and the URL bytes).
	flipByte(t, segs[0], recHdrLen+int64(len(urls[0]))+40)

	ts, logs := reopenLogged(t, dir)
	defer ts.Close()
	served, dropped := 0, ""
	for _, u := range urls {
		if v, ok := ts.Lookup(u, 2000); ok {
			if len(v.Body) == 0 {
				t.Fatalf("%s served an empty body", u)
			}
			served++
		} else if dropped != "" {
			t.Fatalf("more than one entry dropped: %s and %s", dropped, u)
		} else {
			dropped = u
		}
	}
	if dropped == "" {
		t.Fatalf("no entry CRC-dropped (served %d)", served)
	}
	if !logContains(*logs, "corrupt record") {
		t.Fatalf("corrupt record not logged: %q", *logs)
	}
	// The dropped key is gone from the index, so the next lookup is a
	// plain miss, not a repeated decode attempt.
	if ts.Contains(dropped) {
		t.Fatal("CRC-failed entry still indexed")
	}
}

// TestCrashOrphanSegment: a segment file the snapshot does not mention
// (written after the snapshot, or a leftover) is quarantined, not
// silently re-used or re-indexed.
func TestCrashOrphanSegment(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir, 4)
	orphan := filepath.Join(dir, "seg-990000.dat")
	if err := os.WriteFile(orphan, []byte("stray bytes from a torn run"), 0o644); err != nil {
		t.Fatal(err)
	}
	ts, _ := reopenLogged(t, dir)
	defer ts.Close()
	if _, err := os.Stat(orphan + ".quarantined"); err != nil {
		t.Fatalf("orphan segment not quarantined: %v", err)
	}
	// New segment ids must not collide with the quarantined orphan.
	now := int64(3000)
	for i := 0; i < 4; i++ {
		u := fmt.Sprintf("http://o/post%d", i)
		ts.Put(entry(u, 512, now), now)
		ts.Lookup(u, now)
	}
}

// TestCrashMissingSegment: the snapshot names a segment whose file was
// deleted entirely — its entries drop, the rest of the store opens.
func TestCrashMissingSegment(t *testing.T) {
	dir := t.TempDir()
	urls := populate(t, dir, 20)
	segs := segFiles(t, dir)
	if len(segs) < 2 {
		t.Fatalf("need ≥2 segments, got %d", len(segs))
	}
	if err := os.Remove(segs[len(segs)-1]); err != nil {
		t.Fatal(err)
	}
	ts, logs := reopenLogged(t, dir)
	defer ts.Close()
	warm := 0
	for _, u := range urls {
		if _, ok := ts.Lookup(u, 2000); ok {
			warm++
		}
	}
	if warm == 0 || warm == len(urls) {
		t.Fatalf("want partial warmth after losing one segment, got %d/%d", warm, len(urls))
	}
	if len(*logs) == 0 {
		t.Fatal("missing segment not logged")
	}
}

func logContains(logs []string, substr string) bool {
	for _, l := range logs {
		if strings.Contains(strings.ToLower(l), substr) {
			return true
		}
	}
	return false
}

// rewriteLine replaces line idx (0-based) of path.
func rewriteLine(t *testing.T, path string, idx int, repl string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(b), "\n")
	if idx >= len(lines) {
		t.Fatalf("snapshot has %d lines, wanted line %d", len(lines), idx)
	}
	lines[idx] = repl
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
}

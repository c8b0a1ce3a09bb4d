package tiered

import (
	"fmt"
	"path/filepath"
	"testing"

	"piggyback/internal/cache"
	"piggyback/internal/obs"
)

// TestStoreOutdatedBase pins the delta-base contract every cache.Store
// keeps, "ok means servable": after a piggyback names a newer version, the
// copy is a miss that still hands out its body and version for a patch,
// nothing freshens, pins or hints it, a late answer naming its own version
// cannot make it servable again, and only a Put does.
func TestStoreOutdatedBase(t *testing.T) {
	const (
		url           = "http://o/a"
		oldLM, newLM  = 900, 1000
		oldBody       = "old version"
		now           = int64(1000)
		oldLMHTTP     = "Thu, 01 Jan 1970 00:15:00 GMT"
		oldExpires    = now + 300
		oldPinnedTill = now + 50
	)
	stores := []struct {
		name string
		new  func(t *testing.T) cache.Store
	}{
		{"cache", func(*testing.T) cache.Store { return cache.New(1<<20, cache.PiggybackLRU{}) }},
		{"sharded", func(*testing.T) cache.Store { return cache.NewSharded(1<<20, 0, nil) }},
		{"tiered-disk", func(t *testing.T) cache.Store { return newTiered(t, t.TempDir(), 1<<20, Config{}) }},
	}
	for _, st := range stores {
		t.Run(st.name, func(t *testing.T) {
			s := st.new(t)
			defer s.Close()
			s.Put(cache.Entry{URL: url, Size: 100, LastModified: oldLM, LastModifiedHTTP: oldLMHTTP,
				Expires: oldExpires, FetchedAt: now, Body: []byte(oldBody), ContentType: "text/html"}, now)
			s.Pin(url, oldPinnedTill, now)
			if _, ok := s.Lookup(url, now); !ok {
				t.Fatal("the copy is not cached")
			}
			if got := s.ApplyPiggyback(url, newLM, now+600, now+600, now); got != cache.PiggybackInvalidated {
				t.Fatalf("ApplyPiggyback naming a newer version = %v, want %v", got, cache.PiggybackInvalidated)
			}

			before := s.Stats()
			v, ok := s.Lookup(url, now+1)
			if ok || !v.Outdated || string(v.Body) != oldBody || v.LastModified != oldLM ||
				v.LastModifiedHTTP != oldLMHTTP || v.ContentType != "text/html" {
				t.Fatalf("Lookup of the base = %v %+v, want a miss carrying the old version, Outdated", ok, v)
			}
			if after := s.Stats(); after.Hits != before.Hits || after.Misses != before.Misses+1 {
				t.Errorf("Lookup of the base counted %+v -> %+v, want one miss", before, after)
			}
			if pv, ok := s.PeekView(url); ok || fmt.Sprint(pv) != fmt.Sprint(v) {
				t.Errorf("PeekView of the base = %v %+v, want what Lookup returned", ok, pv)
			}

			if s.Contains(url) || s.Freshen(url, now+900) || s.Pin(url, now+900, now) || s.Hint(url, now+900, now) {
				t.Error("Contains, Freshen, Pin or Hint reported the base present")
			}
			for _, lm := range []int64{oldLM, newLM, newLM + 1} {
				// oldLM is the late answer: computed before the
				// invalidation, it names the base's own version.
				if got := s.ApplyPiggyback(url, lm, now+900, now+900, now); got != cache.PiggybackMiss {
					t.Errorf("ApplyPiggyback(lm %d) on the base = %v, want %v", lm, got, cache.PiggybackMiss)
				}
			}
			if pv, ok := s.PeekView(url); ok || fmt.Sprint(pv) != fmt.Sprint(v) {
				t.Errorf("the base changed: %v %+v, want %+v", ok, pv, v)
			}
			if c, plain := s.(*cache.Cache); plain {
				e, _ := c.Peek(url)
				if e.Hits() != 1 || e.LastAccess() != now || e.PinnedUntil() != oldPinnedTill || e.HintCount() != 0 {
					t.Errorf("replacement state of the base moved: hits %d, last access %d, pinned until %d, hints %d",
						e.Hits(), e.LastAccess(), e.PinnedUntil(), e.HintCount())
				}
			}

			s.Put(cache.Entry{URL: url, Size: 100, LastModified: newLM, Expires: now + 600,
				FetchedAt: now, Body: []byte("new version")}, now+2)
			if v, ok := s.Lookup(url, now+2); !ok || v.Outdated || v.LastModified != newLM || string(v.Body) != "new version" {
				t.Fatalf("Lookup after the Put = %v %+v, want the new version, servable", ok, v)
			}
			if !s.Contains(url) {
				t.Error("Contains after the Put = false")
			}
		})
	}
}

// TestTieredBaseNeverOnDisk: a delta base lives in RAM only. Evicting it
// writes no record, Close does not flush it, a restart over the directory
// sees a plain miss, and invalidating a disk-only record turns it into no
// base — the record is dropped without its body being read.
func TestTieredBaseNeverOnDisk(t *testing.T) {
	const url = "http://o/a"
	now := int64(1000)
	a := entry(url, 600, now)
	plainMiss := func(t *testing.T, ts *Tiered, when string) {
		t.Helper()
		if v, ok := ts.Lookup(url, now); ok || v.Outdated {
			t.Errorf("Lookup %s = %v %+v, want a plain miss", when, ok, v)
		}
	}
	invalidate := func(t *testing.T, ts *Tiered) {
		t.Helper()
		if out := ts.ApplyPiggyback(url, a.LastModified+1, now+600, now+600, now); out != cache.PiggybackInvalidated {
			t.Fatalf("ApplyPiggyback = %v, want %v", out, cache.PiggybackInvalidated)
		}
	}

	t.Run("eviction", func(t *testing.T) {
		ts := newTiered(t, t.TempDir(), 1<<10, Config{})
		defer ts.Close()
		reg := obs.NewRegistry()
		ts.Instrument(reg, "cache")
		ts.Put(a, now)
		ts.Lookup(url, now) // utility: a servable copy would pass the gate
		invalidate(t, ts)
		ts.Put(entry("http://o/b", 600, now), now) // evicts the base
		if st := ts.Stats(); st.Demotions != 0 || st.CleanDemotions != 0 || st.Evictions != 1 {
			t.Errorf("evicting the base: %+v, want one eviction and no demotion", st)
		}
		if n := reg.Snapshot().Counter("cache.tier.demotions"); n != 0 {
			t.Errorf("cache.tier.demotions = %d, want 0", n)
		}
		plainMiss(t, ts, "after the eviction")
	})

	t.Run("close and restart", func(t *testing.T) {
		dir := t.TempDir()
		ts := newTiered(t, dir, 1<<20, Config{})
		ts.Put(a, now)
		ts.Put(entry("http://o/b", 600, now), now)
		invalidate(t, ts)
		if err := ts.Close(); err != nil {
			t.Fatal(err)
		}
		re := newTiered(t, dir, 1<<20, Config{})
		defer re.Close()
		if re.Len() != 1 {
			t.Errorf("reopened store holds %d keys, want b alone", re.Len())
		}
		plainMiss(t, re, "after the restart")
		if _, ok := re.Lookup("http://o/b", now); !ok {
			t.Error("b was not flushed")
		}
	})

	t.Run("disk-only record", func(t *testing.T) {
		dir := t.TempDir()
		var logs []string
		ts := newTiered(t, dir, 1<<10, Config{logf: func(format string, args ...interface{}) {
			logs = append(logs, fmt.Sprintf(format, args...))
		}})
		defer ts.Close()
		ts.Put(a, now)
		ts.Lookup(url, now)
		evictAll(ts, now)
		l, ok := ts.disk.index[url]
		if !ok {
			t.Fatal("a was not demoted")
		}
		// Rot the record's last body byte: a read of it would fail its
		// CRC and be logged.
		flipByte(t, filepath.Join(dir, segName(l.seg)), l.off+l.n-recTail-1)
		invalidate(t, ts)
		if len(logs) != 0 {
			t.Errorf("invalidating a disk-only record read it: %q", logs)
		}
		if _, ok := ts.disk.index[url]; ok {
			t.Error("the record is still indexed")
		}
		plainMiss(t, ts, "after invalidating the record")
		if st := ts.Stats(); st.Promotions != 0 {
			t.Errorf("%d promotions, want 0", st.Promotions)
		}
	})
}

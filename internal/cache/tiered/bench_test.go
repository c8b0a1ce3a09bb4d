package tiered

import (
	"fmt"
	"testing"

	"piggyback/internal/cache"
)

// BenchmarkTieredRAMHit measures the RAM-hit fast path through the
// Tiered wrapper. CI gates it (benchgate) so the disk tier's existence
// costs the hot path nothing: the delta vs a bare Sharded lookup must
// stay at 0 allocs/op.
func BenchmarkTieredRAMHit(b *testing.B) {
	for _, tier := range []string{"bare", "tiered"} {
		b.Run(tier, func(b *testing.B) {
			ram := cache.NewSharded(64<<20, 4, nil)
			var s cache.Store = ram
			if tier == "tiered" {
				ts, err := New(cache.NewSharded(64<<20, 4, nil), Config{Dir: b.TempDir()})
				if err != nil {
					b.Fatal(err)
				}
				defer ts.Close()
				s = ts
			}
			now := int64(1000)
			for i := 0; i < 64; i++ {
				s.Put(entry(fmt.Sprintf("http://o/h%02d", i), 2048, now), now)
			}
			urls := make([]string, 64)
			for i := range urls {
				urls[i] = fmt.Sprintf("http://o/h%02d", i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := s.Lookup(urls[i&63], now); !ok {
					b.Fatal("miss on warm set")
				}
			}
		})
	}
}

// BenchmarkTieredPromote measures a disk hit: one record read and decoded
// in a single buffer, and its promotion into RAM. Dropping the RAM copy
// puts the entry back on disk for the next iteration; the record never
// left, so the cycle appends nothing.
func BenchmarkTieredPromote(b *testing.B) {
	ts, err := New(cache.NewSharded(64<<20, 4, nil), Config{
		Dir: b.TempDir(), DiskBytes: 1 << 30, SegmentBytes: 64 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer ts.Close()
	now := int64(1000)
	e := entry("http://o/cycle", 4096, now)
	ts.mu.Lock()
	ts.demoteLocked(&e)
	ts.mu.Unlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ts.Lookup(e.URL, now); !ok {
			b.Fatal("promotion missed")
		}
		ts.RAM().Delete(e.URL)
	}
}

// BenchmarkTieredRedemote measures the whole inclusive round trip through
// the public paths: promote on a disk hit, hit again in RAM (so the
// demotion gate passes), evict, and demote the unchanged entry through
// the writer. The disk tier must not grow by a byte.
func BenchmarkTieredRedemote(b *testing.B) {
	ts, err := New(cache.NewSharded(64<<10, 1, nil), Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer ts.Close()
	now := int64(1000)
	e := entry("http://o/cycle", 4096, now)
	ts.Put(e, now)
	ts.Lookup(e.URL, now)
	evictAll(ts, now)
	before := ts.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ts.Lookup(e.URL, now); !ok {
			b.Fatal("promotion missed")
		}
		ts.Lookup(e.URL, now)
		evictAll(ts, now)
	}
	b.StopTimer()
	st := ts.Stats()
	if st.DiskBytes != before.DiskBytes || st.Demotions != before.Demotions ||
		st.CleanDemotions-before.CleanDemotions != int64(b.N) {
		b.Fatalf("%d re-demotions of an unchanged entry: %+v -> %+v", b.N, before, st)
	}
}

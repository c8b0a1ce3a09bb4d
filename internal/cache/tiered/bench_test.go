package tiered

import (
	"fmt"
	"testing"

	"piggyback/internal/cache"
)

// BenchmarkTieredRAMHit measures the RAM-hit fast path through the
// Tiered wrapper against a bare Sharded lookup. TestTieredAllocBudgets
// holds both at 0 allocs/op, so the disk tier's existence costs the hot
// path nothing.
func BenchmarkTieredRAMHit(b *testing.B) {
	for _, tier := range []string{"bare", "tiered"} {
		b.Run(tier, func(b *testing.B) { benchRAMHit(b, tier) })
	}
}

func benchRAMHit(b *testing.B, tier string) {
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
}

// BenchmarkTieredPromote measures a disk hit: one record read and decoded
// in a single buffer, and its promotion into RAM. Dropping the RAM copy
// puts the entry back on disk for the next iteration; the record never
// left, so the cycle appends nothing.
func BenchmarkTieredPromote(b *testing.B) {
	ts, err := New(cache.NewSharded(64<<20, 4, nil), Config{
		Dir: b.TempDir(), DiskBytes: 1 << 30, segmentBytes: 64 << 20,
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
		ts.ram.Delete(e.URL)
	}
}

// BenchmarkTieredRedemote measures the whole inclusive round trip through
// the public paths: promote on a disk hit, hit again in RAM (so the
// demotion gate passes), and evict, which demotes the unchanged entry in
// the evicting Put. The disk tier must not grow by a byte.
func BenchmarkTieredRedemote(b *testing.B) { benchRedemote(b, false) }

// BenchmarkTieredRedemotePrefetched runs the same cycle on an entry that
// reached the disk as a prefetch: the first promotion reports it, no later
// one does, and the record is kept rather than rewritten.
func BenchmarkTieredRedemotePrefetched(b *testing.B) { benchRedemote(b, true) }

func benchRedemote(b *testing.B, prefetched bool) {
	ts, err := New(cache.NewSharded(64<<10, 1, nil), Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer ts.Close()
	now := int64(1000)
	e := entry("http://o/cycle", 4096, now)
	e.Prefetched = prefetched
	ts.Put(e, now)
	if !prefetched {
		ts.Lookup(e.URL, now) // utility: the gate passes
	}
	evictAll(ts, now)
	before := ts.Stats()
	reports := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, ok := ts.Lookup(e.URL, now)
		if !ok {
			b.Fatal("promotion missed")
		}
		if v.WasPrefetched {
			reports++
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
	want := 0
	if prefetched {
		want = 1
	}
	if reports != want {
		b.Fatalf("%d prefetch reports over %d promotions, want %d", reports, b.N, want)
	}
}

// TestTieredAllocBudgets runs each benchmark above and pins its allocs/op.
// A budget is the count measured when it was set: a rise fails, and so
// does a fall, which asks for the lower number.
func TestTieredAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets need steady-state runs")
	}
	if raceEnabled {
		t.Skip("the budgets are the counts of a build without the race detector")
	}
	for _, tc := range []struct {
		name   string
		bench  func(*testing.B)
		budget int64
	}{
		{"TieredRAMHit/bare", func(b *testing.B) { benchRAMHit(b, "bare") }, 0},
		{"TieredRAMHit/tiered", func(b *testing.B) { benchRAMHit(b, "tiered") }, 0},
		{"TieredPromote", BenchmarkTieredPromote, 5},
		{"TieredRedemote", BenchmarkTieredRedemote, 7},
		{"TieredRedemotePrefetched", BenchmarkTieredRedemotePrefetched, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := testing.Benchmark(tc.bench)
			if r.N == 0 {
				t.Fatal("benchmark failed")
			}
			if got := r.AllocsPerOp(); got != tc.budget {
				t.Errorf("%d allocs/op, budget %d", got, tc.budget)
			}
		})
	}
}

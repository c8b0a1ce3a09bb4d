package tiered

import (
	"fmt"
	"math/rand"
	"testing"

	"piggyback/internal/cache"
)

// keyModel is what the test knows about one key without looking inside
// the store: the version last Put, whether that version has since been
// deleted or invalidated, whether it was Put as a prefetch, and how many
// lookups have reported that prefetch.
type keyModel struct {
	lm         int64 // 0: never Put
	gone       bool
	prefetched bool
	reports    int
}

// TestTieredInvariants drives a disk-backed Tiered through seeded random
// operations and checks, after every one, what the inclusive tier promises:
// a key in both tiers — a RAM delta base included — has one version and the
// record expires no later than the RAM copy; a delta base holds the version
// last Put, invalidated; neither tier holds a version that was replaced, deleted or
// invalidated; a version Put as a prefetch is reported by its first hit and
// by no other, whichever tier answers and through promotions, evictions
// and compactions; and an unchanged promoted entry, prefetched or
// not, goes back to disk without a byte written.
func TestTieredInvariants(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { runInvariants(t, seed) })
	}
}

func runInvariants(t *testing.T, seed int64) {
	const (
		ramBytes = 4 << 10
		keys     = 24
		steps    = 4000
	)
	// Small segments and a disk smaller than the key set's footprint, so
	// rotation, compaction and whole-segment eviction all happen.
	ts := newTiered(t, t.TempDir(), ramBytes, Config{segmentBytes: 4 << 10, DiskBytes: 12 << 10})
	defer ts.Close()
	rng := rand.New(rand.NewSource(seed))
	model := make([]keyModel, keys)
	url := func(k int) string { return fmt.Sprintf("http://o/k%02d", k) }
	body := func(k int, lm int64) []byte {
		return []byte(fmt.Sprintf("%s@%d|", url(k), lm))
	}
	now := int64(10000)
	step := 0
	fail := func(format string, args ...interface{}) {
		t.Helper()
		t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
	}
	record := func(u string) (loc, bool) {
		ts.mu.Lock()
		defer ts.mu.Unlock()
		l, ok := ts.disk.index[u]
		return l, ok
	}
	lookup := func(k int) (cache.View, bool) {
		v, ok := ts.Lookup(url(k), now)
		m := &model[k]
		if v.Outdated && (ok || !m.gone || v.LastModified != m.lm || string(v.Body) != string(body(k, m.lm))) {
			fail("Lookup(%s) = %v, a base of lm %d body %q; model %+v", url(k), ok, v.LastModified, v.Body, *m)
		}
		if !ok {
			return v, false
		}
		if m.gone || v.LastModified != m.lm || string(v.Body) != string(body(k, m.lm)) {
			fail("Lookup(%s) served lm %d body %q; model %+v", url(k), v.LastModified, v.Body, *m)
		}
		if v.WasPrefetched {
			m.reports++
			if !m.prefetched || m.reports > 1 {
				fail("Lookup(%s) reported a prefetch twice, or one never made; model %+v", url(k), *m)
			}
		} else if m.prefetched && m.reports == 0 {
			fail("Lookup(%s) hit a prefetched version without reporting it", url(k))
		}
		return v, true
	}

	var cycles, prefetchCycles int
	for step = 0; step < steps; step++ {
		now++
		k := rng.Intn(keys)
		m := &model[k]
		switch op := rng.Intn(100); {
		case op < 30: // Put a new version, sometimes as a prefetch
			lm := now - int64(rng.Intn(50))
			if lm <= m.lm {
				lm = m.lm + 1
			}
			*m = keyModel{lm: lm, prefetched: rng.Intn(4) == 0}
			b := body(k, lm)
			ts.Put(cache.Entry{
				URL: url(k), Size: int64(300 + rng.Intn(700)), LastModified: lm,
				Expires: now + int64(rng.Intn(300)), FetchedAt: now, Body: b,
				ContentType: "text/html", Prefetched: m.prefetched,
			}, now)
		case op < 60:
			lookup(k)
		case op < 72: // piggyback element: equal, older or newer Last-Modified
			had := ts.Contains(url(k))
			lm := m.lm + int64(rng.Intn(3)) - 1
			got := ts.ApplyPiggyback(url(k), lm, now+int64(rng.Intn(600)), now+600, now)
			want := cache.PiggybackMiss
			if had {
				want = cache.PiggybackRefreshed
				if lm > m.lm {
					want = cache.PiggybackInvalidated
					m.gone = true
				}
			}
			if got != want {
				fail("ApplyPiggyback(%s, lm %d) = %v, want %v; model %+v", url(k), lm, got, want, *m)
			}
		case op < 80:
			ts.Freshen(url(k), now+int64(rng.Intn(900)))
		case op < 88:
			ts.Delete(url(k))
			m.gone = true
		case op < 95:
			evictAll(ts, now)
		case op < 97: // an invalidation of a key the filler just evicted
			const filler = "http://o/filler"
			ts.Put(cache.Entry{URL: filler, Size: ts.ram.Capacity(), Expires: now}, now)
			switch rng.Intn(3) {
			case 0:
				ts.Delete(url(k))
			case 1:
				ts.ApplyPiggyback(url(k), m.lm+1, now+600, now+600, now)
			default:
				ts.Put(cache.Entry{
					URL: url(k), Size: 300, LastModified: m.lm + 1, Expires: now + 100,
					FetchedAt: now, Body: body(k, m.lm+1),
				}, now)
				ts.ram.Delete(url(k)) // what is left of k is what the disk holds
				*m = keyModel{lm: m.lm + 1}
			}
			m.gone = true
			ts.Delete(filler)
		default: // promote, hit, evict unchanged: the re-demotion is free, prefetched or not
			evictAll(ts, now)
			if _, ok := record(url(k)); !ok {
				break
			}
			before := ts.Stats()
			v, ok := lookup(k)
			if !ok {
				fail("%s is indexed but Lookup missed", url(k))
			}
			lookup(k) // a RAM hit: utility, so the demotion gate passes
			ts.Freshen(url(k), v.Expires+50)
			evictAll(ts, now)
			after := ts.Stats()
			l, ok := record(url(k))
			if !ok || l.lm != m.lm || l.expires != v.Expires+50 {
				fail("%s after re-demotion: indexed=%v %+v, want lm %d expires %d", url(k), ok, l, m.lm, v.Expires+50)
			}
			cycles++
			if v.WasPrefetched {
				prefetchCycles++
			}
			if after.DiskBytes != before.DiskBytes || after.Demotions != before.Demotions ||
				after.CleanDemotions != before.CleanDemotions+1 {
				fail("re-demoting unchanged %s wrote to disk: %+v -> %+v", url(k), before, after)
			}
		}

		for k := range model {
			m := model[k]
			rv, inRAM := ts.ram.PeekView(url(k))
			l, onDisk := record(url(k))
			if inRAM && (m.gone || rv.LastModified != m.lm) {
				fail("RAM holds %s lm %d; model %+v", url(k), rv.LastModified, m)
			}
			if onDisk && (m.gone || l.lm != m.lm) {
				fail("disk holds %s lm %d; model %+v", url(k), l.lm, m)
			}
			if inRAM && onDisk && l.expires > rv.Expires {
				fail("%s: record expires %d after the RAM copy's %d", url(k), l.expires, rv.Expires)
			}
			if rv.Outdated && (!m.gone || rv.LastModified != m.lm) {
				fail("RAM holds %s as a base of lm %d; model %+v", url(k), rv.LastModified, m)
			}
			if (inRAM || rv.Outdated) && onDisk && l.lm != rv.LastModified {
				fail("%s: RAM holds lm %d (base %v), the record lm %d", url(k), rv.LastModified, rv.Outdated, l.lm)
			}
		}
	}
	st := ts.Stats()
	if prefetchCycles == 0 || cycles == prefetchCycles || st.Promotions == 0 || st.Compactions == 0 || st.Evictions == 0 {
		t.Fatalf("seed %d: vacuous run: %d re-demotion cycles (%d reporting a prefetch), stats %+v", seed, cycles, prefetchCycles, st)
	}
}

// TestTieredConcurrent hammers a disk-backed store from several goroutines
// (run with -race): promotions that keep their record, clean demotions,
// record drops and the tier-spanning Len/Used all share the tier mutex and
// take shard locks under it, and must neither race nor deadlock. No
// lookup may return a body that is not its URL's.
func TestTieredConcurrent(t *testing.T) {
	ts, err := New(cache.NewSharded(64<<10, 1, nil), Config{
		Dir: t.TempDir(), segmentBytes: 32 << 10, DiskBytes: 256 << 10, logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	const workers, steps, keys = 4, 3000, 64
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < steps; i++ {
				now := int64(1000 + i)
				u := fmt.Sprintf("http://o/c%02d", rng.Intn(keys))
				switch op := rng.Intn(100); {
				case op < 30:
					ts.Put(entry(u, int64(2048+rng.Intn(4096)), now), now)
				case op < 80:
					if v, ok := ts.Lookup(u, now); ok && (len(v.Body) < len(u) || string(v.Body[:len(u)]) != u) {
						t.Errorf("Lookup(%s) returned another key's body", u)
					}
				case op < 88:
					ts.ApplyPiggyback(u, now-100+int64(rng.Intn(2)), now+300, now+600, now)
				case op < 93:
					ts.Delete(u)
				case op < 97:
					ts.Freshen(u, now+600)
				default:
					if n := ts.Len(); n < 0 || n > keys || ts.Used() < 0 {
						t.Errorf("Len %d Used %d out of range", n, ts.Used())
					}
				}
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if st := ts.Stats(); st.Promotions == 0 || st.Demotions == 0 {
		t.Fatalf("hammer never reached the disk tier: %+v", st)
	}
}

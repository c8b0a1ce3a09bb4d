package core

import (
	"math/rand"
	"strconv"
	"testing"

	"piggyback/internal/trace"
)

// Property tests over the Provider contract: every message a volume engine
// emits must respect the filter that requested it, regardless of the
// workload or filter drawn.

// randomLog builds a deterministic random session-ish log.
func randomLog(seed int64, n int) trace.Log {
	rng := rand.New(rand.NewSource(seed))
	var l trace.Log
	t := int64(1000)
	for i := 0; i < n; i++ {
		dir := "/d" + strconv.Itoa(rng.Intn(6))
		kind := ".html"
		if rng.Intn(3) == 0 {
			kind = ".gif"
		}
		l = append(l, trace.Record{
			Time:   t,
			Client: "c" + strconv.Itoa(rng.Intn(8)),
			URL:    dir + "/r" + strconv.Itoa(rng.Intn(30)) + kind,
			Size:   int64(rng.Intn(20000) + 1),
			Status: 200,
		})
		t += int64(rng.Intn(90))
	}
	return l
}

// randomFilter draws a filter with a mix of constraints.
func randomFilter(rng *rand.Rand) Filter {
	f := Filter{}
	if rng.Intn(4) == 0 {
		f.MaxPiggy = rng.Intn(8) + 1
	}
	if rng.Intn(4) == 0 {
		f.MinAccess = rng.Intn(10)
	}
	if rng.Intn(4) == 0 {
		f.MaxSize = int64(rng.Intn(15000) + 1)
	}
	if rng.Intn(5) == 0 {
		f.NoTypes = []string{"image"}
	}
	if rng.Intn(5) == 0 {
		f.ProbThreshold = rng.Float64()
	}
	for i := rng.Intn(3); i > 0; i-- {
		f.RPV = append(f.RPV, VolumeID(rng.Intn(40)))
	}
	return f
}

// checkMessage asserts the filter contract on one message.
func checkMessage(t *testing.T, m Message, f Filter, requested string, counts map[string]int) {
	t.Helper()
	if f.MaxPiggy > 0 && len(m.Elements) > f.MaxPiggy {
		t.Fatalf("maxpiggy violated: %d > %d", len(m.Elements), f.MaxPiggy)
	}
	if f.HasRPV(m.Volume) {
		t.Fatalf("RPV-listed volume %d piggybacked", m.Volume)
	}
	for _, e := range m.Elements {
		if e.URL == requested {
			t.Fatalf("requested resource %q in its own piggyback", requested)
		}
		if f.MaxSize > 0 && e.Size > f.MaxSize {
			t.Fatalf("maxsize violated: %d > %d (%s)", e.Size, f.MaxSize, e.URL)
		}
		if !f.AllowsType(trace.ContentType(e.URL)) {
			t.Fatalf("notypes violated: %s", e.URL)
		}
		if counts != nil && f.MinAccess > 0 && counts[e.URL] < f.MinAccess {
			t.Fatalf("minaccess violated: %s has %d < %d", e.URL, counts[e.URL], f.MinAccess)
		}
	}
}

func TestDirVolumesFilterContractProperty(t *testing.T) {
	log := randomLog(21, 3000)
	counts := log.AccessCounts()
	d := NewDirVolumes(DirConfig{Level: 1, MTF: true, PartitionByType: true})
	rng := rand.New(rand.NewSource(22))
	for i := range log {
		rec := &log[i]
		d.Observe(Access{Source: rec.Client, Time: rec.Time,
			Element: Element{URL: rec.URL, Size: rec.Size, LastModified: rec.Time - 100}})
		f := randomFilter(rng)
		if m, ok := d.Piggyback(rec.URL, rec.Time, f); ok {
			if m.Empty() {
				t.Fatal("ok with empty message")
			}
			// Access counts at this point are <= final counts, so
			// only the structural parts are checked against counts
			// loosely (MinAccess uses live counts; skip that check
			// here by passing nil).
			checkMessage(t, m, f, rec.URL, nil)
		}
	}
	_ = counts
}

func TestProbVolumesFilterContractProperty(t *testing.T) {
	log := randomLog(31, 3000)
	b := NewProbBuilder(ProbConfig{T: 300, Pt: 0.05})
	b.ObserveLog(log)
	v := b.Build(0)
	counts := log.AccessCounts()
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 2000; i++ {
		rec := &log[rng.Intn(len(log))]
		f := randomFilter(rng)
		if m, ok := v.Piggyback(rec.URL, rec.Time, f); ok {
			if m.Empty() {
				t.Fatal("ok with empty message")
			}
			checkMessage(t, m, f, rec.URL, counts)
			// Probability threshold: every element's implication
			// must meet max(Pt, f.ProbThreshold).
			pt := v.Pt
			if f.ProbThreshold > pt {
				pt = f.ProbThreshold
			}
			for _, e := range m.Elements {
				found := false
				for _, imp := range v.Implications(rec.URL) {
					if imp.Elem.URL == e.URL && imp.P >= pt {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("element %s below threshold %v", e.URL, pt)
				}
			}
		}
	}
}

func TestPopularProviderFilterContractProperty(t *testing.T) {
	log := randomLog(41, 2000)
	inner := NewDirVolumes(DirConfig{Level: 1, MTF: true})
	p := NewPopularProvider(inner, 8)
	rng := rand.New(rand.NewSource(42))
	for i := range log {
		rec := &log[i]
		p.Observe(Access{Source: rec.Client, Time: rec.Time,
			Element: Element{URL: rec.URL, Size: rec.Size}})
		f := randomFilter(rng)
		if m, ok := p.Piggyback("/unknown/u"+strconv.Itoa(i%7)+".html", rec.Time, f); ok {
			checkMessage(t, m, f, "/unknown", nil)
		}
	}
}

func TestMessageEncodeParseProperty(t *testing.T) {
	// Any message a provider can emit survives the wire encoding.
	log := randomLog(51, 2000)
	d := NewDirVolumes(DirConfig{Level: 1, MTF: true, ServerMaxPiggy: 10})
	for i := range log {
		rec := &log[i]
		d.Observe(Access{Source: rec.Client, Time: rec.Time,
			Element: Element{URL: rec.URL, Size: rec.Size, LastModified: rec.Time}})
		if m, ok := d.Piggyback(rec.URL, rec.Time, Filter{}); ok {
			got, err := ParseMessage(m.Encode())
			if err != nil {
				t.Fatalf("encode/parse failed: %v (%q)", err, m.Encode())
			}
			if got.Volume != m.Volume || len(got.Elements) != len(m.Elements) {
				t.Fatalf("roundtrip mismatch")
			}
		}
	}
}

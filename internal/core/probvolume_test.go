package core

import (
	"math"
	"strconv"
	"testing"

	"piggyback/internal/trace"
)

// pageTrace builds a log where every request for /a/page.html by any client
// is followed by /a/img.gif within 2 seconds (an embedded image), and half
// the time by /b/next.html within 100 seconds (a followed link).
func pageTrace(nClients, visits int) trace.Log {
	var l trace.Log
	t := int64(1000)
	for c := 0; c < nClients; c++ {
		client := "c" + strconv.Itoa(c)
		for v := 0; v < visits; v++ {
			l = append(l, trace.Record{Time: t, Client: client, URL: "/a/page.html", Size: 5000, Method: "GET", Status: 200})
			l = append(l, trace.Record{Time: t + 2, Client: client, URL: "/a/img.gif", Size: 800, Method: "GET", Status: 200})
			if v%2 == 0 {
				l = append(l, trace.Record{Time: t + 100, Client: client, URL: "/b/next.html", Size: 3000, Method: "GET", Status: 200})
			}
			t += 1000 // next visit outside the window
		}
	}
	l.SortByTime()
	return l
}

func TestProbBuilderEstimatesPairwiseProbabilities(t *testing.T) {
	log := pageTrace(4, 10)
	b := NewProbBuilder(ProbConfig{T: 300, Pt: 0.1})
	b.ObserveLog(log)
	v := b.Build(0)

	imps := v.Implications("/a/page.html")
	if len(imps) == 0 {
		t.Fatal("no implications for /a/page.html")
	}
	probs := map[string]float64{}
	for _, imp := range imps {
		probs[imp.Elem.URL] = imp.P
	}
	if p := probs["/a/img.gif"]; math.Abs(p-1.0) > 1e-9 {
		t.Errorf("p(img|page) = %v, want 1.0", p)
	}
	if p := probs["/b/next.html"]; math.Abs(p-0.5) > 1e-9 {
		t.Errorf("p(next|page) = %v, want 0.5", p)
	}
}

func TestProbBuilderWindowExpiry(t *testing.T) {
	// Requests more than T apart must not be paired.
	var l trace.Log
	l = append(l, trace.Record{Time: 0, Client: "c", URL: "/a/x.html"})
	l = append(l, trace.Record{Time: 400, Client: "c", URL: "/a/y.html"})
	b := NewProbBuilder(ProbConfig{T: 300, Pt: 0.01})
	b.ObserveLog(l)
	v := b.Build(0)
	if got := v.Implications("/a/x.html"); len(got) != 0 {
		t.Errorf("pair across window: %+v", got)
	}
}

func TestProbBuilderCreditsOncePerOccurrence(t *testing.T) {
	// One occurrence of r followed by THREE requests for s within T must
	// credit c_{s|r} once: p(s|r) is a probability, never > 1.
	var l trace.Log
	l = append(l, trace.Record{Time: 0, Client: "c", URL: "/a/r.html"})
	for i := 1; i <= 3; i++ {
		l = append(l, trace.Record{Time: int64(i), Client: "c", URL: "/a/s.html"})
	}
	b := NewProbBuilder(ProbConfig{T: 300, Pt: 0.01})
	b.ObserveLog(l)
	v := b.Build(0)
	imps := v.Implications("/a/r.html")
	if len(imps) != 1 || imps[0].P != 1.0 {
		t.Fatalf("implications = %+v, want single p=1", imps)
	}
}

func TestProbBuilderDifferentSourcesDontPair(t *testing.T) {
	var l trace.Log
	l = append(l, trace.Record{Time: 0, Client: "c1", URL: "/a/x.html"})
	l = append(l, trace.Record{Time: 1, Client: "c2", URL: "/a/y.html"})
	b := NewProbBuilder(ProbConfig{T: 300, Pt: 0.01})
	b.ObserveLog(l)
	if got := b.Build(0).Implications("/a/x.html"); len(got) != 0 {
		t.Errorf("cross-source pair: %+v", got)
	}
}

func TestProbBuilderSelfPairsExcluded(t *testing.T) {
	var l trace.Log
	for i := 0; i < 5; i++ {
		l = append(l, trace.Record{Time: int64(i), Client: "c", URL: "/a/x.html"})
	}
	b := NewProbBuilder(ProbConfig{T: 300, Pt: 0.01})
	b.ObserveLog(l)
	if got := b.Build(0).Implications("/a/x.html"); len(got) != 0 {
		t.Errorf("self pair: %+v", got)
	}
}

func TestProbBuilderSameDirRestriction(t *testing.T) {
	log := pageTrace(4, 10)
	b := NewProbBuilder(ProbConfig{T: 300, Pt: 0.1})
	b.ObserveLog(log)
	all := b.Build(0)
	cross := false
	for _, imp := range all.Implications("/a/page.html") {
		cross = cross || imp.Elem.URL == "/b/next.html"
	}
	if !cross {
		t.Fatal("the unrestricted volumes hold no cross-directory pair to drop")
	}
	v := all.RestrictSameDir(1)
	for _, imp := range v.Implications("/a/page.html") {
		if trace.DirPrefix(imp.Elem.URL, 1) != "/a" {
			t.Errorf("cross-directory pair survived: %s", imp.Elem.URL)
		}
	}
	// img.gif is in the same directory, so it must survive.
	found := false
	for _, imp := range v.Implications("/a/page.html") {
		if imp.Elem.URL == "/a/img.gif" {
			found = true
		}
	}
	if !found {
		t.Error("same-directory pair missing")
	}
}

func TestProbVolumesPiggybackThreshold(t *testing.T) {
	log := pageTrace(4, 10)
	b := NewProbBuilder(ProbConfig{T: 300, Pt: 0.2})
	b.ObserveLog(log)
	v := b.Build(0)

	// With base Pt=0.2 both pairs (p=1.0 and p=0.5) pass.
	m, ok := v.Piggyback("/a/page.html", 9999, Filter{})
	if !ok || len(m.Elements) != 2 {
		t.Fatalf("base piggyback = %+v, %v", m, ok)
	}
	// Element order follows P descending.
	if m.Elements[0].URL != "/a/img.gif" {
		t.Errorf("highest-p element should come first: %+v", m.Elements)
	}
	// Filter raises the threshold above 0.5: only the image survives.
	m, ok = v.Piggyback("/a/page.html", 9999, Filter{ProbThreshold: 0.8})
	if !ok || len(m.Elements) != 1 || m.Elements[0].URL != "/a/img.gif" {
		t.Fatalf("thresholded piggyback = %+v, %v", m, ok)
	}
	// A filter threshold below the base cannot lower it... base applies.
	m, _ = v.Piggyback("/a/page.html", 9999, Filter{ProbThreshold: 0.05})
	if len(m.Elements) != 2 {
		t.Errorf("filter must not lower base threshold: %+v", m.Elements)
	}
}

func TestProbVolumesRPVAndDisabled(t *testing.T) {
	log := pageTrace(2, 5)
	b := NewProbBuilder(ProbConfig{T: 300, Pt: 0.2})
	b.ObserveLog(log)
	v := b.Build(0)
	id, ok := v.VolumeOf("/a/page.html")
	if !ok {
		t.Fatal("VolumeOf missing")
	}
	if _, ok := v.Piggyback("/a/page.html", 1, Filter{RPV: []VolumeID{id}}); ok {
		t.Error("RPV-listed volume must suppress piggyback")
	}
	if _, ok := v.Piggyback("/a/page.html", 1, Filter{Disabled: true}); ok {
		t.Error("disabled filter must suppress piggyback")
	}
	if _, ok := v.Piggyback("/unknown.html", 1, Filter{}); ok {
		t.Error("unknown resource must not piggyback")
	}
}

func TestProbVolumesPerResourceIDs(t *testing.T) {
	log := pageTrace(2, 5)
	b := NewProbBuilder(ProbConfig{T: 300, Pt: 0.2})
	b.ObserveLog(log)
	v := b.Build(0)
	if v.Resources() != 3 {
		t.Fatalf("Resources = %d, want 3", v.Resources())
	}
	ids := map[VolumeID]bool{}
	for _, url := range []string{"/a/page.html", "/a/img.gif", "/b/next.html"} {
		id, ok := v.VolumeOf(url)
		if !ok {
			t.Fatalf("missing id for %s", url)
		}
		if ids[id] {
			t.Errorf("duplicate volume id %d", id)
		}
		ids[id] = true
	}
}

func TestProbVolumesStats(t *testing.T) {
	log := pageTrace(4, 10)
	b := NewProbBuilder(ProbConfig{T: 300, Pt: 0.2})
	b.ObserveLog(log)
	v := b.Build(0)
	st := v.Stats(0.2)
	if st.SelfMembers != 0 {
		t.Errorf("SelfMembers = %d, want 0", st.SelfMembers)
	}
	if st.Pairs == 0 {
		t.Error("expected some pairs")
	}
	// page -> img (1.0) and img -> ??? : img is followed by next 50% of
	// the time within T... page->next, img->next, page->img. next->
	// nothing mostly. Symmetry should be rare.
	if st.SymmetricPairs > st.Pairs {
		t.Errorf("SymmetricPairs %d > Pairs %d", st.SymmetricPairs, st.Pairs)
	}
}

func TestProbVolumesSamplingKeepsFrequentPairs(t *testing.T) {
	log := pageTrace(16, 40)
	sampled := NewProbBuilder(ProbConfig{T: 300, Pt: 0.2, Sampling: true, SampleK: 2, Seed: 7})
	sampled.ObserveLog(log)

	// The high-probability pair co-occurs from the first request, when
	// c_r is tiny and the creation probability is 1, so its counter is
	// exact and the estimate unharmed.
	v := sampled.Build(0)
	var p float64
	for _, imp := range v.Implications("/a/page.html") {
		if imp.Elem.URL == "/a/img.gif" {
			p = imp.P
		}
	}
	if p < 0.9 {
		t.Errorf("sampled p(img|page) = %v, want ~1", p)
	}
}

func TestProbVolumesSamplingSkipsRarePairs(t *testing.T) {
	// /a/r.html becomes popular first; each rare successor then
	// co-occurs once, when the creation probability K/(c_r*Pt) is small,
	// so most of these one-shot pairs never get counters.
	var l trace.Log
	tt := int64(0)
	for i := 0; i < 200; i++ {
		l = append(l, trace.Record{Time: tt, Client: "c", URL: "/a/r.html"})
		tt += 1000
	}
	for i := 0; i < 20; i++ {
		l = append(l, trace.Record{Time: tt, Client: "c", URL: "/a/r.html"})
		l = append(l, trace.Record{Time: tt + 1, Client: "c", URL: "/a/rare" + strconv.Itoa(i) + ".html"})
		tt += 1000
	}
	b := NewProbBuilder(ProbConfig{T: 300, Pt: 0.2, Sampling: true, SampleK: 2, Seed: 7})
	b.ObserveLog(l)
	if b.PairsSkipped == 0 {
		t.Errorf("sampling skipped no pairs (created %d)", b.CountersCreated)
	}
	exact := NewProbBuilder(ProbConfig{T: 300, Pt: 0.2})
	exact.ObserveLog(l)
	if b.NumCounters() >= exact.NumCounters() {
		t.Errorf("sampling should use fewer counters: %d vs %d",
			b.NumCounters(), exact.NumCounters())
	}
}

func TestProbVolumesSamplingUnbiasedInit(t *testing.T) {
	log := pageTrace(16, 40)
	b := NewProbBuilder(ProbConfig{T: 300, Pt: 0.2, Sampling: true, SampleK: 1, Seed: 3})
	b.ObserveLog(log)
	v := b.Build(0)
	for _, imp := range v.Implications("/a/page.html") {
		if imp.P > 1 {
			t.Errorf("probability must clamp at 1: %+v", imp)
		}
	}

	// A counter created with probability p = K/(c_r·Pt) < 1 starts at
	// round(1/p), not 1: here c_r runs 21..40, so p < 0.5 and 1/p > 2.
	var l trace.Log
	tt := int64(0)
	for i := 0; i < 20; i++ {
		l = append(l, trace.Record{Time: tt, Client: "c", URL: "/a/r.html"})
		tt += 1000
	}
	for i := 0; i < 20; i++ {
		l = append(l, trace.Record{Time: tt, Client: "c", URL: "/a/r.html"},
			trace.Record{Time: tt + 1, Client: "c", URL: "/a/s" + strconv.Itoa(i) + ".html"})
		tt += 1000
	}
	b = NewProbBuilder(ProbConfig{T: 300, Pt: 0.2, Sampling: true, SampleK: 2, Seed: 3})
	b.ObserveLog(l)
	if len(b.pairs["/a/r.html"]) == 0 {
		t.Fatal("sampling created no counter")
	}
	for succ, c := range b.pairs["/a/r.html"] {
		if c < 2 {
			t.Errorf("counter for %s created at p < 0.5 starts at %d, want >= 2", succ, c)
		}
	}
}

func TestProbVolumesMinKeepDiscards(t *testing.T) {
	log := pageTrace(4, 10)
	b := NewProbBuilder(ProbConfig{T: 300, Pt: 0.2})
	b.ObserveLog(log)
	v := b.Build(0.9) // keep only near-certain pairs
	for r, imps := range v.imps {
		for _, imp := range imps {
			if imp.P < 0.9 {
				t.Errorf("pair %s->%s p=%v below minKeep", r, imp.Elem.URL, imp.P)
			}
		}
	}
}

func TestRestrictSameDir(t *testing.T) {
	log := pageTrace(4, 10)
	b := NewProbBuilder(ProbConfig{T: 300, Pt: 0.2})
	b.ObserveLog(log)
	v := b.Build(0).RestrictSameDir(1)
	for r, imps := range v.imps {
		rp := trace.DirPrefix(r, 1)
		for _, imp := range imps {
			if trace.DirPrefix(imp.Elem.URL, 1) != rp {
				t.Errorf("cross-dir pair survived RestrictSameDir: %s -> %s", r, imp.Elem.URL)
			}
		}
	}
}

func TestWithPtSweepsThreshold(t *testing.T) {
	log := pageTrace(4, 10)
	b := NewProbBuilder(ProbConfig{T: 300, Pt: 0.1})
	b.ObserveLog(log)
	v := b.Build(0)
	low, _ := v.WithPt(0.1).Piggyback("/a/page.html", 1, Filter{})
	high, ok := v.WithPt(0.9).Piggyback("/a/page.html", 1, Filter{})
	if !ok {
		t.Fatal("high-threshold piggyback vanished entirely")
	}
	if len(high.Elements) >= len(low.Elements) {
		t.Errorf("raising pt should shrink piggyback: %d vs %d", len(high.Elements), len(low.Elements))
	}
}

func TestProbDistributionSorted(t *testing.T) {
	log := pageTrace(4, 10)
	b := NewProbBuilder(ProbConfig{T: 300, Pt: 0.01})
	b.ObserveLog(log)
	ps := b.Build(0).ProbDistribution()
	for i := 1; i < len(ps); i++ {
		if ps[i] < ps[i-1] {
			t.Fatal("ProbDistribution not sorted")
		}
	}
	if len(ps) == 0 {
		t.Fatal("empty distribution")
	}
}

func TestProbVolumesAttributesCarried(t *testing.T) {
	log := pageTrace(2, 5)
	for i := range log {
		log[i].LastModified = 777
	}
	b := NewProbBuilder(ProbConfig{T: 300, Pt: 0.2})
	b.ObserveLog(log)
	m, ok := b.Build(0).Piggyback("/a/page.html", 1, Filter{})
	if !ok {
		t.Fatal("no piggyback")
	}
	for _, e := range m.Elements {
		if e.Size == 0 || e.LastModified != 777 {
			t.Errorf("element attributes missing: %+v", e)
		}
	}
}

func TestProbVolumesObserveNoOpAndAccessCount(t *testing.T) {
	log := pageTrace(2, 5)
	b := NewProbBuilder(ProbConfig{T: 300, Pt: 0.2})
	b.ObserveLog(log)
	v := b.Build(0)
	before := v.AccessCount("/a/page.html")
	if before == 0 {
		t.Fatal("no access count")
	}
	v.Observe(Access{Source: "x", Time: 1, Element: Element{URL: "/a/page.html"}})
	if v.AccessCount("/a/page.html") != before {
		t.Error("Observe mutated static volumes")
	}
}

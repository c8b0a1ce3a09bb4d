package sim

import (
	"math"
	"testing"

	"piggyback/internal/core"
	"piggyback/internal/trace"
	"piggyback/internal/tracegen"
)

// stubProvider piggybacks a fixed element list per URL, honoring RPV and
// Disabled so the simulator's filter plumbing can be observed.
type stubProvider struct {
	vols     map[string]core.Message
	observed int
}

func (p *stubProvider) Observe(a core.Access) { p.observed++ }

func (p *stubProvider) Piggyback(url string, now int64, f core.Filter) (core.Message, bool) {
	if f.Disabled {
		return core.Message{}, false
	}
	m, ok := p.vols[url]
	if !ok {
		return core.Message{}, false
	}
	if f.HasRPV(m.Volume) {
		return core.Message{}, false
	}
	return m, true
}

func rec(t int64, src, url string) trace.Record {
	return trace.Record{Time: t, Client: src, URL: url, Size: 100, Status: 200}
}

func el(url string) core.Element { return core.Element{URL: url, Size: 100, LastModified: 1} }

func TestFractionPredicted(t *testing.T) {
	// /a predicts /b. Request /a then /b within T: /b is predicted.
	p := &stubProvider{vols: map[string]core.Message{
		"/a": {Volume: 1, Elements: []core.Element{el("/b")}},
	}}
	s := New(Config{T: 300, Provider: p})
	res := s.Run(trace.Log{
		rec(100, "p1", "/a"),
		rec(150, "p1", "/b"),
	})
	if res.Predicted != 1 || res.Requests != 2 {
		t.Fatalf("Predicted=%d Requests=%d", res.Predicted, res.Requests)
	}
	if got := res.FractionPredicted(); got != 0.5 {
		t.Errorf("FractionPredicted = %v", got)
	}
}

func TestPredictionExpires(t *testing.T) {
	p := &stubProvider{vols: map[string]core.Message{
		"/a": {Volume: 1, Elements: []core.Element{el("/b")}},
	}}
	s := New(Config{T: 300, Provider: p})
	res := s.Run(trace.Log{
		rec(100, "p1", "/a"),
		rec(500, "p1", "/b"), // 400s later: prediction expired
	})
	if res.Predicted != 0 {
		t.Errorf("expired prediction counted: %d", res.Predicted)
	}
	// The expired instance is an unfulfilled prediction.
	if res.TotalPredictions != 1 || res.FulfilledPredictions != 0 {
		t.Errorf("Total=%d Fulfilled=%d", res.TotalPredictions, res.FulfilledPredictions)
	}
}

func TestPredictionsArePerSource(t *testing.T) {
	p := &stubProvider{vols: map[string]core.Message{
		"/a": {Volume: 1, Elements: []core.Element{el("/b")}},
	}}
	s := New(Config{T: 300, Provider: p})
	res := s.Run(trace.Log{
		rec(100, "p1", "/a"),
		rec(150, "p2", "/b"), // other proxy: not predicted for it
	})
	if res.Predicted != 0 {
		t.Errorf("cross-source prediction: %d", res.Predicted)
	}
}

func TestTruePredictionMergesInstances(t *testing.T) {
	// /a predicts /b; /a requested twice in quick succession => a single
	// prediction instance; then /b arrives => precision 1/1.
	p := &stubProvider{vols: map[string]core.Message{
		"/a": {Volume: 1, Elements: []core.Element{el("/b")}},
	}}
	s := New(Config{T: 300, Provider: p})
	res := s.Run(trace.Log{
		rec(100, "p1", "/a"),
		rec(120, "p1", "/a"),
		rec(200, "p1", "/b"),
	})
	if res.TotalPredictions != 1 {
		t.Fatalf("TotalPredictions = %d, want 1 (merged)", res.TotalPredictions)
	}
	if res.FulfilledPredictions != 1 {
		t.Fatalf("FulfilledPredictions = %d", res.FulfilledPredictions)
	}
	if got := res.TruePredictionFraction(); got != 1.0 {
		t.Errorf("TruePredictionFraction = %v", got)
	}
}

func TestFalsePredictionsCounted(t *testing.T) {
	p := &stubProvider{vols: map[string]core.Message{
		"/a": {Volume: 1, Elements: []core.Element{el("/b"), el("/c")}},
	}}
	s := New(Config{T: 300, Provider: p})
	res := s.Run(trace.Log{
		rec(100, "p1", "/a"),
		rec(200, "p1", "/b"), // /c never requested
	})
	if res.TotalPredictions != 2 || res.FulfilledPredictions != 1 {
		t.Fatalf("Total=%d Fulfilled=%d, want 2/1", res.TotalPredictions, res.FulfilledPredictions)
	}
	if got := res.TruePredictionFraction(); got != 0.5 {
		t.Errorf("TruePredictionFraction = %v", got)
	}
}

func TestUpdateFractionWindows(t *testing.T) {
	// /b requested at t=100 (goes into cache), again at t=1000: the
	// second request is predicted (piggyback at 900) and its previous
	// occurrence is 900s ago — within C, beyond T => UpdatedTC.
	p := &stubProvider{vols: map[string]core.Message{
		"/a": {Volume: 1, Elements: []core.Element{el("/b")}},
	}}
	s := New(Config{T: 300, Provider: p})
	res := s.Run(trace.Log{
		rec(100, "p1", "/b"),
		rec(900, "p1", "/a"),
		rec(1000, "p1", "/b"),
	})
	if res.Predicted != 1 {
		t.Fatalf("Predicted = %d", res.Predicted)
	}
	if res.UpdateEvents != 1 || res.UpdatedTC != 1 {
		t.Errorf("UpdateEvents=%d UpdatedTC=%d", res.UpdateEvents, res.UpdatedTC)
	}
	if res.PrevWithinC != 1 || res.PrevWithinT != 0 {
		t.Errorf("PrevWithinC=%d PrevWithinT=%d", res.PrevWithinC, res.PrevWithinT)
	}
}

func TestPrevWithinTCounting(t *testing.T) {
	p := &stubProvider{vols: map[string]core.Message{}}
	s := New(Config{T: 300, Provider: p})
	res := s.Run(trace.Log{
		rec(100, "p1", "/x"),
		rec(200, "p1", "/x"),   // 100s: within T and C
		rec(5000, "p1", "/x"),  // 4800s: within C only
		rec(99999, "p1", "/x"), // beyond C
	})
	if res.PrevWithinT != 1 {
		t.Errorf("PrevWithinT = %d, want 1", res.PrevWithinT)
	}
	if res.PrevWithinC != 2 {
		t.Errorf("PrevWithinC = %d, want 2", res.PrevWithinC)
	}
}

func TestRPVSuppressesRepeatPiggybacks(t *testing.T) {
	p := &stubProvider{vols: map[string]core.Message{
		"/a": {Volume: 1, Elements: []core.Element{el("/b")}},
	}}
	s := New(Config{T: 300, Provider: p, RPVTimeout: 60})
	res := s.Run(trace.Log{
		rec(100, "p1", "/a"),
		rec(110, "p1", "/a"), // within RPV timeout: suppressed
		rec(200, "p1", "/a"), // after timeout: piggybacked again
	})
	if res.PiggybackMessages != 2 {
		t.Errorf("PiggybackMessages = %d, want 2", res.PiggybackMessages)
	}
}

func TestNoRPVWithoutTimeout(t *testing.T) {
	// RPVTimeout 0 attaches no RPV list: every request for /a carries
	// its volume, however close together.
	p := &stubProvider{vols: map[string]core.Message{
		"/a": {Volume: 1, Elements: []core.Element{el("/b")}},
	}}
	res := New(Config{T: 300, Provider: p}).Run(trace.Log{
		rec(100, "p1", "/a"),
		rec(101, "p1", "/a"),
		rec(102, "p1", "/a"),
	})
	if res.PiggybackMessages != 3 {
		t.Errorf("PiggybackMessages = %d, want 3", res.PiggybackMessages)
	}
}

func TestRPVIsPerSource(t *testing.T) {
	p := &stubProvider{vols: map[string]core.Message{
		"/a": {Volume: 1, Elements: []core.Element{el("/b")}},
	}}
	s := New(Config{T: 300, Provider: p, RPVTimeout: 600})
	res := s.Run(trace.Log{
		rec(100, "p1", "/a"),
		rec(110, "p2", "/a"), // different proxy: gets its own piggyback
	})
	if res.PiggybackMessages != 2 {
		t.Errorf("PiggybackMessages = %d, want 2", res.PiggybackMessages)
	}
}

func TestFeedCallsObserve(t *testing.T) {
	p := &stubProvider{vols: map[string]core.Message{}}
	New(Config{Provider: p}).Run(trace.Log{rec(1, "p1", "/a"), rec(2, "p1", "/b")})
	if p.observed != 2 {
		t.Errorf("observed = %d, want 2", p.observed)
	}
}

func TestPiggybackCostAccounting(t *testing.T) {
	msg := core.Message{Volume: 1, Elements: []core.Element{el("/b"), el("/c")}}
	p := &stubProvider{vols: map[string]core.Message{"/a": msg}}
	s := New(Config{T: 300, Provider: p})
	res := s.Run(trace.Log{rec(100, "p1", "/a")})
	if res.PiggybackMessages != 1 || res.PiggybackElements != 2 {
		t.Fatalf("messages=%d elements=%d", res.PiggybackMessages, res.PiggybackElements)
	}
	if res.PiggybackBytes != int64(msg.WireBytes()) {
		t.Errorf("bytes = %d, want %d", res.PiggybackBytes, msg.WireBytes())
	}
	if got := res.AvgPiggybackSize(); got != 2 {
		t.Errorf("AvgPiggybackSize = %v", got)
	}
}

func TestResultRatiosEmpty(t *testing.T) {
	var r Result
	if r.FractionPredicted() != 0 || r.TruePredictionFraction() != 0 || r.AvgPiggybackSize() != 0 {
		t.Error("empty result ratios should be 0")
	}
}

func TestSimulatorEndToEndWithDirVolumes(t *testing.T) {
	// Integration: directory volumes fed online; a page and its image
	// requested twice by the same proxy. The second image access should
	// be predicted by the piggyback on the second page access.
	d := core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true})
	s := New(Config{T: 300, Provider: d})
	res := s.Run(trace.Log{
		rec(100, "p1", "/a/page.html"),
		rec(102, "p1", "/a/img.gif"),
		rec(1000, "p1", "/a/page.html"), // piggyback includes img
		rec(1002, "p1", "/a/img.gif"),   // predicted
	})
	if res.Predicted < 1 {
		t.Errorf("Predicted = %d, want >= 1", res.Predicted)
	}
	if res.PiggybackMessages == 0 {
		t.Error("no piggybacks generated")
	}
}

func TestSimulatorEndToEndWithProbVolumes(t *testing.T) {
	// Integration: probability volumes built offline from a generated
	// session workload predict some of that workload's requests.
	log, _ := tracegen.GenerateServerLog(tracegen.SiteConfig{
		Name: "sim-test", Seed: 5, Pages: 30, Dirs: 4, MaxDepth: 2,
		MeanImagesPerPage: 2, Clients: 8, Requests: 800, Duration: 3600 * 6,
	})
	b := core.NewProbBuilder(core.ProbConfig{T: 300, Pt: 0.1})
	for _, r := range log {
		b.Observe(r)
	}
	res := New(Config{T: 300, Provider: b.Build(0)}).Run(log)
	if res.Requests != len(log) {
		t.Fatalf("Requests = %d, want %d", res.Requests, len(log))
	}
	if res.FractionPredicted() <= 0 {
		t.Error("no predictions on a session workload")
	}
}

func TestAnalyzeLocality(t *testing.T) {
	log := trace.Log{
		{Time: 0, Client: "c1", URL: "www.x.com/a/p.html"},
		{Time: 10, Client: "c2", URL: "www.x.com/a/q.html"},
		{Time: 30, Client: "c1", URL: "www.x.com/b/r.html"},
		{Time: 40, Client: "c1", URL: "www.y.com/a/s.html"},
	}
	stats := AnalyzeLocality(log, []int{0, 1}, true)
	// Level 0: prefixes x.com (3 requests) and y.com (1). Seen before:
	// requests 2 and 3 (x.com repeats) => 2/4.
	if got := stats[0].SeenBefore; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("level0 SeenBefore = %v, want 0.5", got)
	}
	// Level 1: x.com/a repeats once => 1/4.
	if got := stats[1].SeenBefore; math.Abs(got-0.25) > 1e-9 {
		t.Errorf("level1 SeenBefore = %v, want 0.25", got)
	}
	// Level-0 interarrivals: 10 (a->a), 20 (a->b), 10? x.com seq times
	// 0,10,30 => gaps 10, 20. Median 15.
	if got := stats[0].MedianInterarrival; math.Abs(got-15) > 1e-9 {
		t.Errorf("level0 median = %v, want 15", got)
	}
	if got := stats[1].PredictableWithin(10); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("PredictableWithin(10) = %v", got)
	}
}

func TestAnalyzeLocalityExcludesEmbedded(t *testing.T) {
	log := trace.Log{
		{Time: 0, Client: "c1", URL: "www.x.com/a/p.html"},
		{Time: 1, Client: "c1", URL: "www.x.com/a/i.gif", Embedded: true},
		{Time: 50, Client: "c1", URL: "www.x.com/a/q.html"},
	}
	with := AnalyzeLocality(log, []int{1}, true)
	without := AnalyzeLocality(log, []int{1}, false)
	if with[0].Requests != 3 || without[0].Requests != 2 {
		t.Fatalf("requests: with=%d without=%d", with[0].Requests, without[0].Requests)
	}
	// Excluding images lengthens the median interarrival.
	if !(without[0].MedianInterarrival > with[0].MedianInterarrival) {
		t.Errorf("median with=%v without=%v", with[0].MedianInterarrival, without[0].MedianInterarrival)
	}
}

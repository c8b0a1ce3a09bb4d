package obs

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("Load = %d, want 42", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int64{10, 100})
	for _, v := range []int64{1, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []int64{2, 2, 2} // (<=10), (10,100], overflow
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 6 || s.Sum != 1+10+11+100+101+5000 {
		t.Errorf("count/sum = %d/%d", s.Count, s.Sum)
	}
	if s.Min != 1 || s.Max != 5000 {
		t.Errorf("min/max = %d/%d", s.Min, s.Max)
	}
}

func TestHistogramEmptySnapshot(t *testing.T) {
	s := NewHistogram([]int64{10}).Snapshot()
	if s.Count != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

func TestHistogramSub(t *testing.T) {
	h := NewHistogram([]int64{10, 100})
	h.Observe(5)
	before := h.Snapshot()
	h.Observe(50)
	h.Observe(60)
	win := h.Snapshot().Sub(before)
	if win.Count != 2 || win.Sum != 110 {
		t.Errorf("window = %+v", win)
	}
	if win.Counts[0] != 0 || win.Counts[1] != 2 {
		t.Errorf("window counts = %v", win.Counts)
	}
}

func TestRegistrySnapshotAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.requests").Add(7)
	r.Histogram("a.latency_us", LatencyBuckets()).Observe(123)
	if r.Counter("a.requests") != r.Counter("a.requests") {
		t.Fatal("Counter not idempotent")
	}
	s := r.Snapshot()
	if s.Counter("a.requests") != 7 {
		t.Errorf("counter = %d", s.Counter("a.requests"))
	}
	h, ok := s.Histograms["a.latency_us"]
	if !ok || h.Count != 1 {
		t.Errorf("hist = %+v ok=%v", h, ok)
	}

	var parsed Snapshot
	if err := json.Unmarshal(s.JSON(), &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Counter("a.requests") != 7 {
		t.Errorf("parsed counter = %d", parsed.Counter("a.requests"))
	}
	ph := parsed.Histograms["a.latency_us"]
	if ph.Count != 1 || ph.Min != 123 || ph.Max != 123 {
		t.Errorf("parsed hist = %+v", ph)
	}
}

func TestSnapshotSub(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Add(3)
	before := r.Snapshot()
	r.Counter("x").Add(4)
	r.Counter("y").Inc()
	win := r.Snapshot().Sub(before)
	if win.Counter("x") != 4 || win.Counter("y") != 1 {
		t.Errorf("window = %+v", win.Counters)
	}
}

func TestWireMetricsNames(t *testing.T) {
	r := NewRegistry()
	w := NewWireMetrics(r, "wire.server")
	w.Requests.Inc()
	w.Latency.Observe(99)
	s := r.Snapshot()
	if s.Counter("wire.server.requests") != 1 {
		t.Error("requests counter not registered under prefix")
	}
	if h, ok := s.Histograms["wire.server.latency_us"]; !ok || h.Count != 1 {
		t.Error("latency histogram not registered under prefix")
	}
}

// TestConcurrentObserve exercises the lock-free paths under the race
// detector: concurrent counter adds, histogram observations, and
// snapshots.
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("reqs")
			h := r.Histogram("lat", LatencyBuckets())
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(int64(w*per + i + 1))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counter("reqs") != workers*per {
		t.Errorf("reqs = %d, want %d", s.Counter("reqs"), workers*per)
	}
	h := s.Histograms["lat"]
	if h.Count != workers*per || h.Min != 1 || h.Max != workers*per {
		t.Errorf("hist = count %d min %d max %d", h.Count, h.Min, h.Max)
	}
	var sum int64
	for _, c := range h.Counts {
		sum += c
	}
	if sum != h.Count {
		t.Errorf("bucket sum %d != count %d", sum, h.Count)
	}
}

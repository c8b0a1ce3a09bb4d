package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"piggyback/internal/httpwire"
	"piggyback/internal/server"
)

func TestPercentileIsExact(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("single sample: got %d", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("no samples: got %d", got)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}, {99999, 99.9}, {100000, 99.99}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestMergeKeepsSlicesApart(t *testing.T) {
	// Two clients, two whole slices and a partial third: the first client
	// answered 2 + 1 requests in the whole slices, the second 1 + 0 and one
	// more in the partial slice.
	stats := []tally{
		{latencies: []int64{5, 3, 9}, slices: []slice{{requests: 2, bytes: 20}, {requests: 1, bytes: 10}}, attempted: 3, bytes: 30},
		{latencies: []int64{4, 7}, slices: []slice{{requests: 1, bytes: 10}, {}, {requests: 1, bytes: 10}}, attempted: 2, bytes: 20},
	}
	w := merge(stats, []time.Duration{0, 100, 250})
	if len(w.slices) != 2 || w.slices[0].cpu != 100 || w.slices[1].cpu != 150 {
		t.Fatalf("slices = %+v", w.slices)
	}
	if got := w.slices[0]; got.requests != 3 || got.bytes != 30 || !reflect.DeepEqual(got.latencies, []int64{3, 4, 5}) {
		t.Errorf("slice 0 = %+v", got)
	}
	if got := w.slices[1]; got.requests != 1 || !reflect.DeepEqual(got.latencies, []int64{9}) {
		t.Errorf("slice 1 = %+v", got)
	}
	if !reflect.DeepEqual(w.latencies, []int64{3, 4, 5, 9, 7}) || w.attempted != 5 || w.bytes != 50 {
		t.Errorf("window = %v, %d attempted, %d bytes", w.latencies, w.attempted, w.bytes)
	}
	// Per-slice medians 4 and 9: the upper of the two is reported.
	if p50, p99 := w.percentiles(); p50 != 9e-3 || p99 != 9e-3 {
		t.Errorf("percentiles = %v %v", p50, p99)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("two values: quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},  // 0: root
		{start: 10, end: 40, parent: 0},   // 1
		{start: 30, end: 60, parent: 0},   // 2: overlaps 1 by 10
		{start: 90, end: 120, parent: 0},  // 3: runs past the root's end
		{start: 35, end: 50, parent: 2},   // 4: grandchild, counts against 2 only
		{start: 70, end: 0, parent: 0},    // 5: never ended
		{start: 200, end: 250, parent: 0}, // 6: wholly outside its parent
	}
	want := []int64{
		100 - (50 + 10), // union of [10,60] and the clipped [90,100]
		30, 30 - 15, 30, 15, 0, 50,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// modLog replays the first n records of in against a fresh world and
// returns every Store.Modify it performed.
func modLog(in *inputs, n int) []string {
	w := newWorld(in, server.NewStore(), true)
	var log []string
	w.onModify = func(url string, lm int64) { log = append(log, fmt.Sprint(url, "@", lm)) }
	for _, rec := range in.records[:n] {
		w.advance(rec.t)
	}
	return log
}

func TestSameSeedSameInputs(t *testing.T) {
	w := workloadByName("churn_piggy")
	a, b, c := w.generate(7), w.generate(7), w.generate(8)
	if !reflect.DeepEqual(a.records, b.records) {
		t.Fatal("same seed, different request sequence")
	}
	if reflect.DeepEqual(a.records, c.records) {
		t.Fatal("different seeds, same request sequence")
	}
	ma, mb := modLog(a, 5000), modLog(b, 5000)
	if len(ma) == 0 {
		t.Fatal("no modifications in 5000 requests")
	}
	if !reflect.DeepEqual(ma, mb) {
		t.Fatal("same seed, different Store.Modify sequence")
	}
	// The twin replays the very same inputs.
	if p := workloadByName("churn_plain").generate(7); !reflect.DeepEqual(a.records, p.records) ||
		!reflect.DeepEqual(ma, modLog(p, 5000)) {
		t.Fatal("churn_plain does not replay churn_piggy's requests and modifications")
	}
}

// changing returns a generated resource that changes, and one of its ticks.
func changing(t *testing.T) (*resource, int64) {
	in := workloadByName("churn_piggy").generate(1)
	for i := range in.resources {
		if r := &in.resources[i]; r.interval > 0 {
			return r, r.versionAt(in.start + 30*24*3600)
		}
	}
	t.Fatal("no changing resource")
	return nil, 0
}

func TestOracleSplitsStaleFromViolation(t *testing.T) {
	r, v := changing(t)
	const delta = 3600
	next := v + r.interval // the instant version v is superseded
	if r.interval <= delta {
		t.Skipf("interval %d too short for the cases below", r.interval)
	}
	for _, c := range []struct {
		name       string
		lm, sentAt int64
		want       verdict
	}{
		{"current version", v, v + 10, fresh},
		{"current until the very tick", v, next - 1, fresh},
		{"origin ran ahead of the request", next, next - 5, fresh},
		{"superseded a second ago", v, next, stale},
		{"superseded within delta", v, next + delta - 1, stale},
		{"superseded delta ago", v, next + delta, violation},
		{"two versions behind", v - r.interval, next + 1, violation},
		{"never a version", v + 1, v + 10, violation},
	} {
		if got := judge(r, c.lm, c.sentAt, delta); got != c.want {
			t.Errorf("%s: judge = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestCheckBody(t *testing.T) {
	const lm = 899251200
	stamp := fmt.Sprintf("<!-- version %d -->", lm)
	mk := func(status int, body string, date string) *httpwire.Response {
		resp := httpwire.NewResponse(status)
		resp.Body = []byte(body)
		if date != "" {
			resp.Header.Set("Last-Modified", date)
		}
		return resp
	}
	date := httpwire.FormatHTTPDate(lm)
	long := stamp + "<!-- /a.html -->\n"
	var scratch []byte
	for _, c := range []struct {
		name string
		r    resource
		resp *httpwire.Response
		ok   bool
	}{
		{"good", resource{bodyLen: len(long)}, mk(200, long, date), true},
		{"body shorter than the stamp", resource{bodyLen: 10}, mk(200, stamp[:10], date), true},
		{"empty resource", resource{bodyLen: 0}, mk(200, "", date), true},
		{"not 200", resource{bodyLen: len(long)}, mk(502, long, date), false},
		{"wrong length", resource{bodyLen: len(long) + 1}, mk(200, long, date), false},
		{"no Last-Modified", resource{bodyLen: len(long)}, mk(200, long, ""), false},
		{"stamp disagrees with header", resource{bodyLen: len(long)}, mk(200, long, httpwire.FormatHTTPDate(lm+60)), false},
	} {
		got, ok := checkBody(&c.r, c.resp, &scratch)
		if ok != c.ok || (ok && got != lm) {
			t.Errorf("%s: checkBody = %d, %v; want ok=%v", c.name, got, ok, c.ok)
		}
	}
}

// TestQuickRunEmitsEveryMetric is the end-to-end smoke: a few thousand
// requests per workload, traced and untraced, must fail no operation and
// emit every metric BENCHMARK.json names, with its unit.
func TestQuickRunEmitsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	out := t.TempDir()
	for _, sw := range spec.Workloads {
		w := workloadByName(sw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json names unknown workload %q", sw.Name)
		}
		for _, traced := range []bool{false, true} {
			res, err := run(runConfig{w: w, seed: 3, seconds: 0.25, trace: traced, outDir: out, quick: true})
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1000 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
				if _, err := os.Stat(out + "/trace-" + w.name + ".jsonl"); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s [%s] emitted as %+v (present=%v)", w.name, traced, m.Name, m.Unit, got, ok)
				}
			}
		}
	}
}

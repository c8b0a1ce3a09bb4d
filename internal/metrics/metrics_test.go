package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := Median(xs); got != 3 {
		t.Errorf("Median = %v", got)
	}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("Q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("Q1 = %v", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Errorf("Q.25 = %v", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	// Input must not be reordered.
	if xs[0] != 5 {
		t.Error("Quantile mutated input")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.5); got != 5 {
		t.Errorf("interpolated median = %v", got)
	}
}

// TestQuantileNotNearestRank pins the estimator: rank q*(n-1) with linear
// interpolation between straddling order statistics, NOT nearest-rank
// (which would always return an element of xs).
func TestQuantileNotNearestRank(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	cases := []struct{ q, want float64 }{
		{0, 10}, {0.25, 17.5}, {0.5, 25}, {0.75, 32.5}, {0.9, 37}, {1, 40},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Nearest-rank of q=0.25 over 4 samples would be 10; interpolation
	// gives a value not present in xs at all.
	for _, x := range xs {
		if Quantile(xs, 0.25) == x {
			t.Errorf("Quantile(0.25) = %v is an element of xs; nearest-rank behaviour", x)
		}
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("empty mean should be NaN")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {99, 1},
	}
	for _, cse := range cases {
		if got := c.P(cse.x); math.Abs(got-cse.want) > 1e-9 {
			t.Errorf("P(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
	if c.N() != 4 {
		t.Errorf("N = %d", c.N())
	}
	if got := c.Quantile(0.5); got != 2.5 {
		t.Errorf("Quantile(0.5) = %v", got)
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = rng.NormFloat64() * 100
	}
	c := NewCDF(samples)
	f := func(a, b float64) bool {
		if a > b {
			a, b = b, a
		}
		return c.P(a) <= c.P(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFQuantileInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = rng.Float64() * 50
	}
	c := NewCDF(samples)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		x := c.Quantile(q)
		if p := c.P(x); p < q-0.01 {
			t.Errorf("P(Quantile(%v)) = %v < %v", q, p, q)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Header: []string{"Server", "Requests", "Frac"}}
	tbl.AddRow("sun-like", 300000, 0.206)
	tbl.AddRow("aiusa", 60000, 0.056)
	s := tbl.String()
	if !strings.Contains(s, "sun-like") || !strings.Contains(s, "0.206") {
		t.Errorf("table missing cells:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 { // header, separator, two rows
		t.Errorf("table has %d lines:\n%s", len(lines), s)
	}
	// Columns aligned: header and separator same width.
	if len(lines[0]) == 0 || len(lines[1]) == 0 {
		t.Error("empty header or separator")
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{3, "3"},
		{0.5, "0.500"},
		{123.456, "123.5"},
		{math.NaN(), "-"},
	}
	for _, c := range cases {
		if got := FormatFloat(c.in); got != c.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.206); got != "20.6%" {
		t.Errorf("Pct = %q", got)
	}
	if got := Pct(math.NaN()); got != "-" {
		t.Errorf("Pct(NaN) = %q", got)
	}
}

func TestQuantileMatchesSortedDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	// With 101 points, quantile q lands exactly on index 100q.
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		want := sorted[int(q*100)]
		if got := Quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

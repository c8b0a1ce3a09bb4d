package core

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestFilterHeaderRoundTrip(t *testing.T) {
	f := Filter{
		MaxPiggy:      10,
		RPV:           []VolumeID{3, 4},
		MinAccess:     50,
		MaxSize:       65536,
		ProbThreshold: 0.25,
		NoTypes:       []string{"image"},
	}
	got, err := ParseFilter(f.Header())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, f)
	}
}

func TestFilterHeaderPaperExample(t *testing.T) {
	// §2.3: Piggy-filter: maxpiggy=10; rpv="3,4";
	f, err := ParseFilter(`maxpiggy=10; rpv="3,4";`)
	if err != nil {
		t.Fatal(err)
	}
	if f.MaxPiggy != 10 {
		t.Errorf("MaxPiggy = %d", f.MaxPiggy)
	}
	if len(f.RPV) != 2 || f.RPV[0] != 3 || f.RPV[1] != 4 {
		t.Errorf("RPV = %v", f.RPV)
	}
}

func TestFilterOnOff(t *testing.T) {
	for _, s := range []string{"", "on"} {
		f, err := ParseFilter(s)
		if err != nil || f.Disabled {
			t.Errorf("ParseFilter(%q) = %+v, %v", s, f, err)
		}
	}
	f, err := ParseFilter("off")
	if err != nil || !f.Disabled {
		t.Errorf("ParseFilter(off) = %+v, %v", f, err)
	}
	if (Filter{Disabled: true}).Header() != "off" {
		t.Error("disabled filter should render as off")
	}
	if (Filter{}).Header() != "on" {
		t.Error("zero filter should render as on")
	}
}

func TestFilterUnknownAttributeIgnored(t *testing.T) {
	f, err := ParseFilter("maxpiggy=5; future=xyz")
	if err != nil {
		t.Fatal(err)
	}
	if f.MaxPiggy != 5 {
		t.Errorf("MaxPiggy = %d", f.MaxPiggy)
	}
}

func TestFilterParseErrors(t *testing.T) {
	bad := []string{
		"maxpiggy=-1",
		"maxpiggy=abc",
		"rpv=\"x\"",
		"rpv=\"99999\"",
		"rpv=\"65539\"", // not volume 3: the id is not truncated to 16 bits
		"minaccess=no",
		"maxsize=-5",
		"pt=1.5",
		"pt=-0.1",
		"pt=xx",
		"pt=NaN",
		"garbage",
	}
	for _, s := range bad {
		if _, err := ParseFilter(s); err == nil {
			t.Errorf("ParseFilter(%q) succeeded, want error", s)
		}
	}
}

func TestFilterRoundTripProperty(t *testing.T) {
	f := func(maxPiggy uint8, nRPV uint8, minAcc uint16, maxSize uint32, pt uint8) bool {
		in := Filter{
			MaxPiggy:      int(maxPiggy),
			MinAccess:     int(minAcc),
			MaxSize:       int64(maxSize),
			ProbThreshold: float64(pt%101) / 100,
		}
		for i := 0; i < int(nRPV%6); i++ {
			in.RPV = append(in.RPV, VolumeID(i*7+1))
		}
		out, err := ParseFilter(in.Header())
		if err != nil {
			return false
		}
		// Header sorts RPV ids; compare as sets.
		sort.Slice(in.RPV, func(i, j int) bool { return in.RPV[i] < in.RPV[j] })
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterAdmits(t *testing.T) {
	f := Filter{MaxSize: 1000, NoTypes: []string{"image"}}
	if f.Admits(Element{URL: "/a.gif", Size: 10}, "image/gif") {
		t.Error("image should be rejected by notypes")
	}
	if f.Admits(Element{URL: "/a.html", Size: 2000}, "text/html") {
		t.Error("oversize element should be rejected")
	}
	if !f.Admits(Element{URL: "/a.html", Size: 500}, "text/html") {
		t.Error("small html should pass")
	}
	if !(Filter{}).Admits(Element{Size: 1 << 40}, "anything") {
		t.Error("zero filter should admit everything")
	}
}

func TestFilterCap(t *testing.T) {
	cases := []struct {
		fMax, sMax, want int
	}{
		{0, 0, 0},
		{10, 0, 10},
		{0, 20, 20},
		{10, 20, 10},
		{30, 20, 20},
	}
	for _, c := range cases {
		f := Filter{MaxPiggy: c.fMax}
		if got := f.Cap(c.sMax); got != c.want {
			t.Errorf("Cap(f=%d, s=%d) = %d, want %d", c.fMax, c.sMax, got, c.want)
		}
	}
}

func TestFilterHasRPV(t *testing.T) {
	f := Filter{RPV: []VolumeID{1, 9, 200}}
	if !f.HasRPV(9) || f.HasRPV(2) {
		t.Error("HasRPV wrong")
	}
}

func BenchmarkFilterHeaderRoundTrip(b *testing.B) {
	f := Filter{MaxPiggy: 10, RPV: []VolumeID{3, 4, 9}, MinAccess: 50, ProbThreshold: 0.25}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := f.Header()
		if _, err := ParseFilter(h); err != nil {
			b.Fatal(err)
		}
	}
}

package core

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestMessageEncodeParseRoundTrip(t *testing.T) {
	m := Message{
		Volume: 17,
		Elements: []Element{
			{URL: "/a/b.html", Size: 4096, LastModified: 866268400},
			{URL: "/a/c.gif", Size: 512, LastModified: 866268401},
		},
	}
	got, err := ParseMessage(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Volume != m.Volume || len(got.Elements) != len(m.Elements) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, m)
	}
	for i := range m.Elements {
		if got.Elements[i] != m.Elements[i] {
			t.Errorf("element %d: %+v != %+v", i, got.Elements[i], m.Elements[i])
		}
	}
}

func TestMessageEncodeEmptyElements(t *testing.T) {
	m := Message{Volume: 5}
	got, err := ParseMessage(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Volume != 5 || len(got.Elements) != 0 {
		t.Fatalf("got %+v", got)
	}
	if !m.Empty() {
		t.Error("Empty() should be true")
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(vol uint16, n uint8, sz, lm uint32) bool {
		m := Message{Volume: VolumeID(vol) % (MaxVolumeID + 1)}
		for i := 0; i < int(n%8); i++ {
			m.Elements = append(m.Elements, Element{
				URL:          "/d/r" + string(rune('a'+i)) + ".html",
				Size:         int64(sz) + int64(i),
				LastModified: int64(lm) + int64(i),
			})
		}
		got, err := ParseMessage(m.Encode())
		if err != nil {
			return false
		}
		if got.Volume != m.Volume || len(got.Elements) != len(m.Elements) {
			return false
		}
		for i := range m.Elements {
			if got.Elements[i] != m.Elements[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParseMessageErrors(t *testing.T) {
	bad := []string{
		"",
		"noid",
		"99999; /a 1 2",
		"65539; /a 1 2", // not volume 3: the id is not truncated to 16 bits
		"-3; /a 1 2",
		"5; /a 1",
		"5; /a one 2",
		"5; /a 1 two",
		"5; /a 1 2 3",
	}
	for _, s := range bad {
		if _, err := ParseMessage(s); err == nil {
			t.Errorf("ParseMessage(%q) succeeded, want error", s)
		}
	}
}

func TestWireBytesMatchesPaperEstimate(t *testing.T) {
	// §2.3: a typical ~50-byte URL plus two 8-byte integers gives ~66
	// bytes per element.
	url := "/products/java/docs/api/javax/swing/JComponent.html" // 52 bytes
	e := Element{URL: url, Size: 13900, LastModified: 899637753}
	if got := e.WireBytes(); got != len(url)+16 {
		t.Errorf("WireBytes = %d, want %d", got, len(url)+16)
	}
	m := Message{Volume: 3, Elements: []Element{e, e, e, e, e, e}}
	// 2-byte volume id + 6 elements.
	want := 2 + 6*(len(url)+16)
	if got := m.WireBytes(); got != want {
		t.Errorf("Message.WireBytes = %d, want %d", got, want)
	}
}

func TestEncodeIsSingleLine(t *testing.T) {
	m := Message{Volume: 1, Elements: []Element{{URL: "/a", Size: 1, LastModified: 2}}}
	if s := m.Encode(); strings.ContainsAny(s, "\r\n") {
		t.Errorf("Encode produced newline: %q", s)
	}
}

func TestEncodeSegmentFastPathMatchesSlow(t *testing.T) {
	elems := []Element{
		{URL: "/a/b.html", Size: 4096, LastModified: 866268400},
		{URL: "/a/c.gif", Size: 512, LastModified: 866268401},
		{URL: "/a/d.png", Size: 0, LastModified: 0},
	}
	slow := Message{Volume: 17, Elements: elems}
	fast := Message{Volume: 17, Elements: elems,
		enc: []string{elementSegment(elems[0]), elementSegment(elems[1]), elementSegment(elems[2])}}
	if s, f := slow.Encode(), fast.Encode(); s != f {
		t.Fatalf("segment fast path diverged:\nslow %q\nfast %q", s, f)
	}
}

func TestRefreshElementsKeepsSegmentsCoherent(t *testing.T) {
	elems := []Element{
		{URL: "/keep", Size: 10, LastModified: 100},
		{URL: "/gone", Size: 20, LastModified: 200},
		{URL: "/changed", Size: 30, LastModified: 300},
	}
	m := Message{Volume: 9, Elements: elems,
		enc: []string{elementSegment(elems[0]), elementSegment(elems[1]), elementSegment(elems[2])}}
	m.RefreshElements(func(url string) (int64, int64, bool) {
		switch url {
		case "/keep":
			return 10, 100, true
		case "/changed":
			return 31, 301, true
		}
		return 0, 0, false
	})
	want := []Element{
		{URL: "/keep", Size: 10, LastModified: 100},
		{URL: "/changed", Size: 31, LastModified: 301},
	}
	if len(m.Elements) != len(want) {
		t.Fatalf("elements = %+v, want %+v", m.Elements, want)
	}
	for i := range want {
		if m.Elements[i] != want[i] {
			t.Errorf("element %d = %+v, want %+v", i, m.Elements[i], want[i])
		}
	}
	// The cached segments must still describe exactly the refreshed
	// elements — Encode via segments equals Encode via formatting.
	plain := Message{Volume: m.Volume, Elements: m.Elements}
	if got, wantEnc := m.Encode(), plain.Encode(); got != wantEnc {
		t.Fatalf("refreshed segments diverged:\ngot  %q\nwant %q", got, wantEnc)
	}
}

func TestDirVolumesPiggybackCarriesSegments(t *testing.T) {
	d := NewDirVolumes(DirConfig{Level: 1, MTF: true})
	for i, url := range []string{"/a/x.html", "/a/y.html", "/a/z.html"} {
		d.Observe(Access{Source: "p1", Time: int64(100 + i),
			Element: Element{URL: url, Size: int64(10 * (i + 1)), LastModified: int64(1000 + i)}})
	}
	m, ok := d.Piggyback("/a/x.html", 200, Filter{})
	if !ok || len(m.Elements) == 0 {
		t.Fatalf("Piggyback = %+v, %v", m, ok)
	}
	if len(m.enc) != len(m.Elements) {
		t.Fatalf("enc len %d != elements len %d", len(m.enc), len(m.Elements))
	}
	plain := Message{Volume: m.Volume, Elements: m.Elements}
	if got, want := m.Encode(), plain.Encode(); got != want {
		t.Fatalf("piggyback segments diverged:\ngot  %q\nwant %q", got, want)
	}
}

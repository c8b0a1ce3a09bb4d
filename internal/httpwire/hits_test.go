package httpwire

import (
	"reflect"
	"strings"
	"testing"
)

func TestHitsRoundTrip(t *testing.T) {
	req := NewRequest("GET", "/x")
	SetPaths(req, FieldPiggyHits, []string{"/a/one.html", "/a/two.gif"})
	got := GetPaths(req, FieldPiggyHits)
	// Most-recent-first encoding reverses the slice.
	want := []string{"/a/two.gif", "/a/one.html"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("GetPaths = %v, want %v", got, want)
	}
}

func TestHitsEmpty(t *testing.T) {
	req := NewRequest("GET", "/x")
	SetPaths(req, FieldPiggyHits, nil)
	if req.Header.Has(FieldPiggyHits) {
		t.Error("empty hits should not set the header")
	}
	if GetPaths(req, FieldPiggyHits) != nil {
		t.Error("GetPaths on absent header")
	}
}

func TestHitsSkipsUnencodableURLs(t *testing.T) {
	req := NewRequest("GET", "/x")
	wrote := SetPaths(req, FieldPiggyHits, []string{"/ok.html", "/bad url.html", "/with,comma", "/with|bar", ""})
	got := GetPaths(req, FieldPiggyHits)
	if len(got) != 1 || got[0] != "/ok.html" || !reflect.DeepEqual(wrote, got) {
		t.Fatalf("SetPaths wrote %v, GetPaths = %v", wrote, got)
	}
}

// TestPathsFrontCoded pins the list grammar: each item is a plain path or
// "<k>|<suffix>" against the previous decoded path, used only where it is
// shorter; a bad k drops its item alone.
func TestPathsFrontCoded(t *testing.T) {
	req := NewRequest("GET", "/x")
	paths := []string{"/s/page-0001-index.html", "/s/inline-img-0001-1.gif", "/s/inline-img-0001-0.gif", "/s/inline-img-0001-0.gif", "/t.gif", "/s/a.gif"}
	wrote := SetPaths(req, FieldPiggyHits, paths)
	if v, want := req.Header.Get(FieldPiggyHits), "/s/a.gif,/t.gif,/s/inline-img-0001-0.gif,24|,19|1.gif,3|page-0001-index.html"; v != want {
		t.Fatalf("Piggy-Hits %q, want %q", v, want)
	}
	if got := GetPaths(req, FieldPiggyHits); !reflect.DeepEqual(got, wrote) || len(got) != len(paths) {
		t.Fatalf("GetPaths = %q, SetPaths wrote %q", got, wrote)
	}

	for _, tc := range []struct{ v, want string }{
		{"/a/x.html, /a/y.gif", "/a/x.html /a/y.gif"}, // a list without front coding
		{"/a/x.html,9|,3|y.gif", "/a/x.html /a/x.html /a/y.gif"},
		{"/a/x.html,10|y.gif,3|z.gif", "/a/x.html /a/z.gif"}, // k past the previous path
		{"/a/x.html,1|y.gif,0|y.gif,x|y.gif,|y.gif", "/a/x.html"},
		{"3|y.gif,/a/x.html", "/a/x.html"},                          // nothing before it
		{"/a/x.html,3|y|z.gif", "/a/x.html"},                        // a bar in the decoded path
		{"/a/x.html,12y.gif,3|z.gif", "/a/x.html 12y.gif 12yz.gif"}, // digit-led, no bar: plain
	} {
		req := NewRequest("GET", "/x")
		req.Header.Set(FieldPiggyHits, tc.v)
		if got := strings.Join(GetPaths(req, FieldPiggyHits), " "); got != tc.want {
			t.Errorf("GetPaths(%q) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

// TestPathsDecodeBounded: a coded item stands for up to its previous
// path's length, so a long value of repeats of a long path would decode to
// far more than it carries. A value longer than SetPaths ever writes is not
// a list; the longest list that is decodes to a bounded size.
func TestPathsDecodeBounded(t *testing.T) {
	decoded := func(v string) (n int) {
		req := NewRequest("GET", "/x")
		req.Header.Set(FieldPiggyHits, v)
		for _, p := range GetPaths(req, FieldPiggyHits) {
			n += len(p)
		}
		return n
	}
	long := "/" + strings.Repeat("a", 32_000)
	if n := decoded(long + strings.Repeat(",32001|", (64<<10-len(long))/7)); n != 0 {
		t.Errorf("64 KiB value decoded to %d bytes, want none", n)
	}
	// The worst a list within the budget can do: a path of half of it,
	// then repeats of that path at 6 bytes each.
	half := "/" + strings.Repeat("a", maxPathsHeader/2-1)
	v := half + strings.Repeat(",1024|", (maxPathsHeader-len(half))/6)
	if len(v) > maxPathsHeader {
		t.Fatalf("test value %d bytes, budget %d", len(v), maxPathsHeader)
	}
	if n, limit := decoded(v), maxPathsHeader*maxPathsHeader/8; n == 0 || n > limit {
		t.Errorf("%d-byte list decoded to %d bytes, want 1..%d", len(v), n, limit)
	}
}

func TestHitsBudget(t *testing.T) {
	var urls []string
	for i := 0; i < 500; i++ {
		urls = append(urls, "/directory/with/long/path/resource-"+strings.Repeat("x", 20)+".html")
	}
	req := NewRequest("GET", "/x")
	SetPaths(req, FieldPiggyHits, urls)
	if len(req.Header.Get(FieldPiggyHits)) > maxPathsHeader {
		t.Errorf("header exceeds budget: %d bytes", len(req.Header.Get(FieldPiggyHits)))
	}
	if len(GetPaths(req, FieldPiggyHits)) == 0 {
		t.Error("budget truncation dropped everything")
	}
	// The freshest (last) hit must survive truncation.
	urls[len(urls)-1] = "/freshest.html"
	req2 := NewRequest("GET", "/x")
	SetPaths(req2, FieldPiggyHits, urls)
	got := GetPaths(req2, FieldPiggyHits)
	if got[0] != "/freshest.html" {
		t.Errorf("freshest hit lost: first = %q", got[0])
	}
}

// sessionHits is a 32-path hit report shaped like a churn_piggy session's:
// pages of one section and their inline images, shared images reread
// again and again, in the order the hits were buffered.
func sessionHits() []string {
	shared := "/section-07/inline-img-0000-0.gif"
	var hits []string
	for _, p := range []string{"0000", "0012", "0031", "0044", "0012", "0000", "0058"} {
		hits = append(hits, "/section-07/page-"+p+"-index.html", shared,
			"/section-07/inline-img-"+p+"-1.gif", "/section-07/inline-img-"+p+"-2.gif")
	}
	hits = append(hits, "/section-07/area-1/page-0103-index.html", "/section-07/area-1/inline-img-0103-0.gif",
		"/section-03/page-0200-index.html", "/section-03/inline-img-0200-0.gif")
	return hits[len(hits)-32:]
}

// TestWireByteBudgets pins the size of the list and answer encodings on
// realistic inputs, as TestAllocBudgets pins allocations: a session's hit
// report front-codes to at most 60% of its plain comma-joined length, and a
// 26-entry P-Valid2 answer takes at most 20 bytes per entry.
func TestWireByteBudgets(t *testing.T) {
	hits := sessionHits()
	req := NewRequest("GET", "/section-07/page-0071-index.html")
	SetPaths(req, FieldPiggyHits, hits)
	plain := len(strings.Join(hits, ","))
	got := len(req.Header.Get(FieldPiggyHits))
	t.Logf("Piggy-Hits: %d of %d plain bytes", got, plain)
	if got > plain*60/100 {
		t.Errorf("Piggy-Hits: %d bytes for %d paths, budget %d (60%% of %d plain)", got, len(hits), plain*60/100, plain)
	}

	answers := make([]Answer, 26)
	for i := range answers {
		// Last-Modified times in the trace's 1998 range; HTML and image
		// sizes around the site generator's medians.
		answers[i] = Answer{I: i, LastModified: 899251200 - int64(i)*86_413, Size: 1530 + int64(i)*211}
	}
	resp := NewResponse(200)
	AttachAnswers(resp, req, answers)
	got = len(resp.Trailer.Get(FieldPValid))
	t.Logf("P-Valid2: %d bytes for %d entries", got, len(answers))
	if got > 20*len(answers) {
		t.Errorf("P-Valid2: %d bytes for %d entries, budget %d", got, len(answers), 20*len(answers))
	}
}

// TestAnswersBoundToLists: an answer applies only to the lists whose
// digest it carries, and an answer in the older element form, in the
// older P-Valid field, is no answer.
func TestAnswersBoundToLists(t *testing.T) {
	req := NewRequest("GET", "/x")
	n := len(SetPaths(req, FieldPiggyHits, []string{"/a/y.gif", "/a/x.html"}))
	n += len(SetPaths(req, FieldPiggyValidate, []string{"/a/z.html"}))
	want := []Answer{{I: 0, LastModified: 1000, Size: 100}, {I: 2, LastModified: 2000, Size: 70}}
	resp := NewResponse(200)
	AttachAnswers(resp, req, want)
	if got := ExtractAnswers(resp, req, n); !reflect.DeepEqual(got, want) {
		t.Fatalf("ExtractAnswers = %+v, want %+v", got, want)
	}
	reordered := NewRequest("GET", "/x")
	SetPaths(reordered, FieldPiggyHits, []string{"/a/x.html", "/a/y.gif"})
	SetPaths(reordered, FieldPiggyValidate, []string{"/a/z.html"})
	if got := ExtractAnswers(resp, reordered, n); got != nil {
		t.Errorf("answer for reordered lists: %+v, want none", got)
	}
	// An older origin's answer, under its own name or this one.
	for _, field := range []string{"P-Valid", FieldPValid} {
		old := NewResponse(200)
		old.Trailer = Header{}
		old.Trailer.Set(field, "/a/x.html 1000 100, /a/z.html 2000 70")
		if got := ExtractAnswers(old, req, n); got != nil {
			t.Errorf("element-form answer in %s: %+v, want none", field, got)
		}
	}
}

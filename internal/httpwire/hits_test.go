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
	SetPaths(req, FieldPiggyHits, []string{"/ok.html", "/bad url.html", "/with,comma", ""})
	got := GetPaths(req, FieldPiggyHits)
	if len(got) != 1 || got[0] != "/ok.html" {
		t.Fatalf("GetPaths = %v", got)
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

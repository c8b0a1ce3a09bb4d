package httpwire

import (
	"fmt"
	"testing"

	"piggyback/internal/core"
)

// TestChangesRoundTrip: a change list goes out sorted and front-coded,
// within the bytes ChangeCost promises, closing comma included, and comes
// back element for element, complete or not; a break is a token alone.
func TestChangesRoundTrip(t *testing.T) {
	els := []core.Element{
		{URL: "/s/page-0002.html", Size: 4096, LastModified: 866268402},
		{URL: "/s/img-0001.gif", Size: 512, LastModified: 866268400},
		{URL: "/s/page-0001.html", Size: 2048, LastModified: 866268401},
	}
	cost := 0
	for _, el := range els {
		cost += ChangeCost(el)
	}
	resp := NewResponse(200)
	AttachChanges(resp, ChangesValue("k3.42", els, true))
	v := resp.Trailer.Get(FieldPChanges)
	if want := "k3.42;/s/img-0001.gif 866268400 512,3|page-0001.html 866268401 2048,11|2.html 866268402 4096,"; v != want {
		t.Fatalf("P-Changes %q, want %q", v, want)
	}
	if len(v)-len("k3.42;") > cost {
		t.Errorf("list of %d bytes, ChangeCost promised at most %d", len(v)-len("k3.42;"), cost)
	}
	token, got, brk, complete, ok := ExtractChanges(resp)
	if !ok || brk || !complete || token != "k3.42" || fmt.Sprint(got) != fmt.Sprint(els) {
		t.Fatalf("ExtractChanges: ok %v break %v complete %v token %q elements %v, want %v", ok, brk, complete, token, got, els)
	}
	// Cut short: no closing comma.
	AttachChanges(resp, ChangesValue("k3.43", els, false))
	if token, got, brk, complete, ok := ExtractChanges(resp); !ok || brk || complete || token != "k3.43" || len(got) != 3 {
		t.Fatalf("capped list: ok %v break %v complete %v token %q elements %v", ok, brk, complete, token, got)
	}

	resp = NewResponse(304)
	AttachChanges(resp, "k3.50")
	if token, got, brk, complete, ok := ExtractChanges(resp); !ok || !brk || complete || token != "k3.50" || got != nil {
		t.Fatalf("break: ok %v break %v complete %v token %q elements %v", ok, brk, complete, token, got)
	}
	// Nothing changed: a complete, empty list under the same token.
	if v := ChangesValue("k3.51", nil, true); v != "k3.51;," {
		t.Fatalf("nothing new rendered %q, want %q", v, "k3.51;,")
	}
	for v, wantComplete := range map[string]bool{"k3.51;,": true, "k3.51;": false} {
		resp.Trailer.Set(FieldPChanges, v)
		if token, got, brk, complete, ok := ExtractChanges(resp); !ok || brk || complete != wantComplete || token != "k3.51" || len(got) != 0 {
			t.Fatalf("%q: ok %v break %v complete %v token %q elements %v", v, ok, brk, complete, token, got)
		}
	}
}

// TestExtractChangesRejects: a value that is not an origin's change list
// is ignored whole, so it moves neither the cache nor the token.
func TestExtractChangesRejects(t *testing.T) {
	long := make([]byte, MaxChangeBytes)
	for i := range long {
		long[i] = 'a'
	}
	many := "t;"
	for i := 0; i <= MaxChanges; i++ {
		if i > 0 {
			many += ","
		}
		many += fmt.Sprintf("/p%d 1 1", i)
	}
	for _, v := range []string{
		"",                            // absent
		";/a 1 2",                     // no token
		"a b;/a 1 2",                  // a space in the token
		"t;other.host/a 1 2",          // not server-relative
		"t;/a 0 2",                    // no version
		"t;/a 1",                      // no size
		"t;/a x 2",                    // bad Last-Modified
		"t;/a 1 2,,/b 1 2",            // an empty item
		"t;/a 1 2,,",                  // an empty item before the closing comma
		"t;/a,b 1 2",                  // a comma in the path cuts the item
		"t;/a 1 2,99|b 1 2",           // k beyond the previous path
		"t;/" + string(long) + " 1 2", // a list past the cap
		many,                          // more items than the cap
		string(long[:maxTokenBytes+1]) + ";/a 1 2",
	} {
		resp := NewResponse(200)
		resp.Trailer = Header{FieldPChanges: v}
		if token, els, brk, _, ok := ExtractChanges(resp); ok {
			t.Errorf("ExtractChanges(%.40q) = %q %v %v, want rejected", v, token, els, brk)
		}
	}
	if _, _, _, _, ok := ExtractChanges(NewResponse(200)); ok {
		t.Error("a response without a trailer yielded a change list")
	}
}

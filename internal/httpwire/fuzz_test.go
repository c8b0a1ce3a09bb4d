package httpwire

import (
	"bufio"
	"bytes"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"piggyback/internal/core"
)

// Fuzz targets: the wire parsers face bytes from the network and must
// never panic, whatever arrives. `go test` runs the seed corpus; extend
// with `go test -fuzz FuzzReadResponse ./internal/httpwire`.

func FuzzReadRequest(f *testing.F) {
	f.Add([]byte("GET /a/x.html HTTP/1.1\r\nHost: example.com\r\nPiggy-Filter: maxpiggy=10\r\n\r\n"))
	f.Add([]byte("POST /s HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"))
	f.Add([]byte("GET / HTTP/1.0\r\n\r\n"))
	f.Add([]byte("GARBAGE"))
	f.Add([]byte("GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ReadRequest(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		// A successfully parsed request must re-serialize without error.
		var buf bytes.Buffer
		if werr := WriteRequest(bufio.NewWriter(&buf), req); werr != nil {
			t.Fatalf("reserialize: %v", werr)
		}
	})
}

// FuzzHits reads its input both as a path-list value and as a list of
// paths, one per line, for each field the path-list codec serves
// (Piggy-Hits, Piggy-Validate). GetPaths never panics and never returns a
// path that is not listable; and GetPaths(SetPaths(paths)) is exactly the
// list SetPaths returned, a subsequence of paths last first, written in at
// most maxPathsHeader bytes.
func FuzzHits(f *testing.F) {
	f.Add("/a/one.html, /a/two.gif")
	f.Add("/ok.html\n/bad url.html\n/with,comma\n\n/last.html")
	f.Add(" ,, /padded.html ,\t")
	f.Add("/a/x.html,99|y.gif,3|z.gif")          // k beyond the previous path
	f.Add("/a/x.html,0|y.gif,1|y.gif,2|y.gif")   // k of 0 and 1, then 2
	f.Add("/a/b|c.html\n/a/b.html\n/a/b|d.html") // paths holding a bar
	f.Add("/a/x.html,12y.gif,3|z.gif")           // a digit-led item with no bar
	f.Add("/a/x.html,9|,9|,3|y.gif|")            // trailing bars
	f.Add("/s/inline-img-0000-0.gif\n/s/page-0000-index.html\n/s/inline-img-0000-0.gif\n/s/inline-img-0000-0.gif")
	f.Fuzz(func(t *testing.T, s string) {
		for _, field := range []string{FieldPiggyHits, FieldPiggyValidate} {
			req := NewRequest("GET", "/x")
			req.Header.Set(field, s)
			for _, h := range GetPaths(req, field) {
				if !Listable(h) {
					t.Fatalf("GetPaths(%s: %q) returned %q", field, s, h)
				}
			}

			paths := strings.Split(s, "\n")
			req = NewRequest("GET", "/x")
			wrote := SetPaths(req, field, paths)
			v := req.Header.Get(field)
			if len(v) > maxPathsHeader {
				t.Fatalf("SetPaths(%s) wrote %d bytes, budget %d", field, len(v), maxPathsHeader)
			}
			if got := GetPaths(req, field); !reflect.DeepEqual(got, wrote) {
				t.Fatalf("SetPaths(%s) wrote %q as %q, GetPaths returned %q", field, wrote, v, got)
			}
			i := len(paths) - 1
			for _, h := range wrote {
				for i >= 0 && paths[i] != h {
					i--
				}
				if i < 0 {
					t.Fatalf("SetPaths(%s) wrote %q out of last-first order in %q", field, wrote, paths)
				}
				i--
			}
		}
	})
}

// FuzzExtractAnswers reads its first input as the paths a request sends,
// one per line — in Piggy-Hits up to the first blank line, in
// Piggy-Validate after it — and its second as a P-Valid2 value, taken both
// as it is and with its digest replaced by the sent lists' own.
// ExtractAnswers never panics and returns only indexes of sent paths; what
// it returns comes back unchanged through AttachAnswers; and that answer,
// checked against a request carrying the same lists swapped, returns
// nothing.
func FuzzExtractAnswers(f *testing.F) {
	f.Add("/a/x.html\n/a/y.gif\n\n/a/z.html", "0;0 866268400 4096,2 866268401 512")
	f.Add("/a/x.html\n\n/a/x.html", "0;0 1 2,1 3 4")
	f.Add("/a/x.html", "17; /a/b.html 866268400 4096, /a/c.gif 866268401 512") // an element-form answer
	f.Add("/a/x.html", " /a/b.html 866268400 4096")
	f.Add("/a/x.html\n/a/y.gif", "0; 1 2 3 , 0 4 5") // indexes out of order
	f.Add("/a/x.html", "0;1 2 3")                    // index past the lists
	f.Add("", "0;")
	f.Add("/a/x.html\n/a/y.gif", "ffffffff;+1 -2 +3")
	f.Add("/a/x.html\n/a/y.gif", " FFFF ; 0 1 2 ,")      // padded, upper-case tag, trailing comma
	f.Add("/a/x.html\n/a/y.gif", "0;0  1 2,1 3 4 5,1 6") // double space, extra field
	f.Fuzz(func(t *testing.T, lists, value string) {
		hits, listed, _ := strings.Cut(lists, "\n\n")
		req := NewRequest("GET", "/x")
		sent := SetPaths(req, FieldPiggyHits, strings.Split(hits, "\n"))
		sent = append(sent, SetPaths(req, FieldPiggyValidate, strings.Split(listed, "\n"))...)
		swapped := NewRequest("GET", "/x")
		swapped.Header.Set(FieldPiggyHits, req.Header.Get(FieldPiggyValidate))
		swapped.Header.Set(FieldPiggyValidate, req.Header.Get(FieldPiggyHits))

		_, list, _ := strings.Cut(value, ";")
		for _, v := range []string{value, strconv.FormatUint(uint64(listDigest(req)), 16) + ";" + list} {
			resp := NewResponse(200)
			resp.Trailer = Header{}
			resp.Trailer.Set(FieldPValid, v)
			got := ExtractAnswers(resp, req, len(sent))
			for _, a := range got {
				if a.I < 0 || a.I >= len(sent) {
					t.Fatalf("ExtractAnswers(%q) returned index %d for %d sent paths", v, a.I, len(sent))
				}
			}
			again := NewResponse(200)
			AttachAnswers(again, req, got)
			if back := ExtractAnswers(again, req, len(sent)); !reflect.DeepEqual(back, got) {
				t.Fatalf("ExtractAnswers(%q) = %+v, reparsed from %q as %+v", v, got, again.Trailer.Get(FieldPValid), back)
			}
			if listDigest(swapped) != listDigest(req) {
				if back := ExtractAnswers(again, swapped, len(sent)); back != nil {
					t.Fatalf("answer %q for other lists returned %+v", again.Trailer.Get(FieldPValid), back)
				}
			}
		}
	})
}

func FuzzReadResponse(f *testing.F) {
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"))
	f.Add([]byte("HTTP/1.1 304 Not Modified\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: P-Volume\r\n\r\n3\r\nabc\r\n0\r\nP-Volume: 1; /a 2 3\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\n"))
	f.Add([]byte("NOT HTTP AT ALL"))
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := ReadResponse(bufio.NewReader(bytes.NewReader(data)), false)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if werr := WriteResponse(bufio.NewWriter(&buf), resp, false); werr != nil {
			t.Fatalf("reserialize: %v", werr)
		}
	})
}

// FuzzExtractChanges reads its input as a P-Changes value. ExtractChanges
// never panics; what it accepts is a valid token and at most MaxChanges
// elements, each a listable server-relative path with a positive
// Last-Modified, and a break is neither complete nor a list; and,
// re-rendered, it decodes to the same token, elements (in path order) and
// completeness whenever the re-encoded list fits the cap.
func FuzzExtractChanges(f *testing.F) {
	f.Add("k3.42;/s/img-0001.gif 866268400 512,3|page-0001.html 866268401 2048,15|2.html 866268402 4096")
	f.Add("k3.42;/s/img-0001.gif 866268400 512,3|page-0001.html 866268401 2048,15|2.html 866268402 4096,")
	f.Add("k3.50")
	f.Add("k3.51;")
	f.Add("k3.51;,")
	f.Add("k3.51; , ")
	f.Add(" t ; /a 1 2 , /b 3 4 ")
	f.Add("t;/a 1 2,2|b 3 4,99|c 5 6")
	f.Add("t;/a 1 2,")
	f.Add("t;/a 1 2,,")
	f.Add("t;,/a 1 2")
	f.Add("t;other.host/a 1 2")
	f.Add("t;/a -1 2,/b 1 -2")
	f.Add("a;b;/c 1 2")
	f.Fuzz(func(t *testing.T, v string) {
		resp := NewResponse(200)
		resp.Trailer = Header{FieldPChanges: v}
		token, els, brk, complete, ok := ExtractChanges(resp)
		if !ok {
			return
		}
		if !validToken(token) || len(els) > MaxChanges || brk && (len(els) > 0 || complete) {
			t.Fatalf("ExtractChanges(%q) = %q, %d elements, break %v, complete %v", v, token, len(els), brk, complete)
		}
		for _, el := range els {
			if !Listable(el.URL) || el.URL[0] != '/' || el.LastModified <= 0 {
				t.Fatalf("ExtractChanges(%q) returned %+v", v, el)
			}
		}
		again := NewResponse(200)
		if brk {
			AttachChanges(again, token)
		} else {
			AttachChanges(again, ChangesValue(token, slices.Clone(els), complete))
		}
		_, list, _ := strings.Cut(again.Trailer.Get(FieldPChanges), ";")
		if len(list) > MaxChangeBytes {
			return
		}
		token2, els2, brk2, complete2, ok2 := ExtractChanges(again)
		sorted := slices.Clone(els)
		slices.SortStableFunc(sorted, func(a, b core.Element) int { return strings.Compare(a.URL, b.URL) })
		slices.SortStableFunc(els2, func(a, b core.Element) int { return strings.Compare(a.URL, b.URL) })
		if !ok2 || token2 != token || brk2 != brk || complete2 != complete || !reflect.DeepEqual(sorted, els2) && len(els) > 0 {
			t.Fatalf("re-rendered %q as %q: %q %v %v %v %v, want %q %v %v %v", v, again.Trailer.Get(FieldPChanges), token2, els2, brk2, complete2, ok2, token, sorted, brk, complete)
		}
	})
}

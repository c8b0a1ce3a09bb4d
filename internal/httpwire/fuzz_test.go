package httpwire

import (
	"bufio"
	"bytes"
	"reflect"
	"strings"
	"testing"
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
// (Piggy-Hits, Piggy-Validate). GetPaths never panics and never returns an
// element that is empty, holds a comma or has whitespace at either end; and
// GetPaths(SetPaths(paths)) is exactly what SetPaths encoded, a subsequence
// of paths last first, in at most maxPathsHeader bytes.
func FuzzHits(f *testing.F) {
	f.Add("/a/one.html, /a/two.gif")
	f.Add("/ok.html\n/bad url.html\n/with,comma\n\n/last.html")
	f.Add(" ,, /padded.html ,\t")
	f.Fuzz(func(t *testing.T, s string) {
		for _, field := range []string{FieldPiggyHits, FieldPiggyValidate} {
			req := NewRequest("GET", "/x")
			req.Header.Set(field, s)
			for _, h := range GetPaths(req, field) {
				if h == "" || strings.Contains(h, ",") || strings.TrimSpace(h) != h {
					t.Fatalf("GetPaths(%s: %q) returned %q", field, s, h)
				}
			}

			paths := strings.Split(s, "\n")
			req = NewRequest("GET", "/x")
			SetPaths(req, field, paths)
			v := req.Header.Get(field)
			if len(v) > maxPathsHeader {
				t.Fatalf("SetPaths(%s) wrote %d bytes, budget %d", field, len(v), maxPathsHeader)
			}
			got := GetPaths(req, field)
			if strings.Join(got, ",") != v {
				t.Fatalf("SetPaths(%s) encoded %q, GetPaths returned %q", field, v, got)
			}
			i := len(paths) - 1
			for _, h := range got {
				for i >= 0 && paths[i] != h {
					i--
				}
				if i < 0 {
					t.Fatalf("GetPaths(%s) returned %q out of last-first order in %q", field, got, paths)
				}
				i--
			}
		}
	})
}

// FuzzExtractValidations reads its input as a P-Valid trailer value.
// ExtractValidations never panics, and what it returns comes back
// unchanged through AttachValidations. The seeds are FuzzParseMessage's
// corpus (internal/core), whole and with the volume id cut off.
func FuzzExtractValidations(f *testing.F) {
	for _, s := range []string{
		"17; /a/b.html 866268400 4096, /a/c.gif 866268401 512",
		"0;",
		" 3 ;  /x 1 2 ,/y 3 4 ",
		"5; /a;b -1 +2",
		"32767; /a 1 2",
	} {
		f.Add(s)
		if _, els, ok := strings.Cut(s, ";"); ok {
			f.Add(els)
		}
	}
	f.Fuzz(func(t *testing.T, s string) {
		resp := NewResponse(200)
		resp.Trailer = Header{}
		resp.Trailer.Set(FieldPValid, s)
		els := ExtractValidations(resp)
		again := NewResponse(200)
		AttachValidations(again, els)
		if got := ExtractValidations(again); !reflect.DeepEqual(got, els) {
			t.Fatalf("ExtractValidations(%q) = %+v, reparsed from %q as %+v", s, els, again.Trailer.Get(FieldPValid), got)
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

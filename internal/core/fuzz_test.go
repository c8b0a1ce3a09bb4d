package core

import (
	"reflect"
	"slices"
	"testing"
)

// Fuzz targets for the two piggyback parsers that read bytes a peer
// controls: the P-Volume trailer a server (or a mesh peer) sends and the
// Piggy-Filter header a proxy sends. Neither may panic, and what parses
// must survive a trip through the encoder unchanged. `go test` runs the
// seed corpus; extend with `go test -fuzz FuzzParseMessage ./internal/core`.

func FuzzParseMessage(f *testing.F) {
	f.Add("17; /a/b.html 866268400 4096, /a/c.gif 866268401 512")
	f.Add("0;")
	f.Add(" 3 ;  /x 1 2 ,/y 3 4 ")
	f.Add("5; /a;b -1 +2")
	f.Add("32767; /a 1 2")
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseMessage(s)
		if err != nil {
			return
		}
		m2, err := ParseMessage(m.Encode())
		if err != nil {
			t.Fatalf("ParseMessage(%q) = %+v, whose encoding %q does not parse: %v", s, m, m.Encode(), err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("ParseMessage(%q) = %+v, reparsed from %q as %+v", s, m, m.Encode(), m2)
		}
	})
}

func FuzzParseFilter(f *testing.F) {
	f.Add(`maxpiggy=10; rpv="3,4"; minaccess=50; maxsize=65536; pt=0.25; notypes="image"`)
	f.Add("off")
	f.Add("on")
	f.Add(`rpv="9,1,9"; NOTYPES=" a , b "; future=x`)
	f.Add(`notypes="a",b"`)
	// Parsed as a NaN threshold, which Header drops, until the range check
	// rejected NaN.
	f.Add("pt=NaN")
	f.Fuzz(func(t *testing.T, s string) {
		fl, err := ParseFilter(s)
		if err != nil {
			return
		}
		f2, err := ParseFilter(fl.Header())
		if err != nil {
			t.Fatalf("ParseFilter(%q) = %+v, whose header %q does not parse: %v", s, fl, fl.Header(), err)
		}
		// Header sorts the RPV ids: the list is a set.
		slices.Sort(fl.RPV)
		if !reflect.DeepEqual(fl, f2) {
			t.Fatalf("ParseFilter(%q) = %+v, reparsed from %q as %+v", s, fl, fl.Header(), f2)
		}
	})
}

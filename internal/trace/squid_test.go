package trace

import (
	"testing"
	"testing/quick"
)

const squidLine = "899637753.123 87 10.1.2.3 TCP_MISS/200 4316 GET http://www.foo.com/a/x.html - DIRECT/10.9.8.7 text/html"

func TestParseSquid(t *testing.T) {
	r, err := ParseSquid(squidLine)
	if err != nil {
		t.Fatal(err)
	}
	if r.Time != 899637753 {
		t.Errorf("Time = %d", r.Time)
	}
	if r.Client != "10.1.2.3" || r.Method != "GET" {
		t.Errorf("client/method = %q %q", r.Client, r.Method)
	}
	if r.URL != "www.foo.com/a/x.html" {
		t.Errorf("URL = %q (scheme must be stripped)", r.URL)
	}
	if r.Status != 200 || r.Size != 4316 {
		t.Errorf("status/size = %d/%d", r.Status, r.Size)
	}
}

func TestParseSquidErrors(t *testing.T) {
	bad := []string{
		"",
		"too few fields",
		"notatime 87 c TCP_MISS/200 10 GET http://x -",
		"899637753.1 87 c TCPMISS200 10 GET http://x -",
		"899637753.1 87 c TCP_MISS/xx 10 GET http://x -",
		"899637753.1 87 c TCP_MISS/200 zz GET http://x -",
	}
	for _, s := range bad {
		if _, err := ParseSquid(s); err == nil {
			t.Errorf("ParseSquid(%q) succeeded", s)
		}
	}
}

func TestSquidRoundTrip(t *testing.T) {
	f := func(tsec uint32, status bool, size uint32, cn uint8) bool {
		r := Record{
			Time:   int64(tsec),
			Client: "10.0.0." + string(rune('1'+cn%9)),
			Method: "GET",
			URL:    "www.example.com/d/f.html",
			Status: 200,
			Size:   int64(size % 1000000),
		}
		if status {
			r.Status = 304
		}
		got, err := ParseSquid(FormatSquid(r))
		return err == nil && got == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatSquidServerRelative(t *testing.T) {
	r := Record{Time: 1, Client: "c", URL: "/a/x.html", Status: 200, Size: 5}
	got, err := ParseSquid(FormatSquid(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.URL != "localhost/a/x.html" {
		t.Errorf("URL = %q", got.URL)
	}
}

func TestParseAny(t *testing.T) {
	clf := FormatCLF(Record{Time: 899637753, Client: "c", Method: "GET", URL: "/x", Status: 200, Size: 1})
	if _, err := ParseAny(clf); err != nil {
		t.Errorf("ParseAny(CLF): %v", err)
	}
	if _, err := ParseAny(squidLine); err != nil {
		t.Errorf("ParseAny(squid): %v", err)
	}
	if _, err := ParseAny("nonsense"); err == nil {
		t.Error("ParseAny accepted nonsense")
	}
}

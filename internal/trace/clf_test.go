package trace

import (
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseCLF(t *testing.T) {
	line := `192.0.2.7 - - [05/Jul/1998:11:22:33 +0000] "GET /a/b.html HTTP/1.0" 200 1530`
	r, err := ParseCLF(line)
	if err != nil {
		t.Fatal(err)
	}
	if r.Client != "192.0.2.7" {
		t.Errorf("Client = %q", r.Client)
	}
	if r.Method != "GET" || r.URL != "/a/b.html" {
		t.Errorf("request = %q %q", r.Method, r.URL)
	}
	if r.Status != 200 || r.Size != 1530 {
		t.Errorf("status/size = %d/%d", r.Status, r.Size)
	}
	// 1998-07-05 11:22:33 UTC
	if r.Time != 899637753 {
		t.Errorf("Time = %d, want 899637753", r.Time)
	}
}

func TestParseCLFDashSize(t *testing.T) {
	line := `host - - [05/Jul/1998:11:22:33 +0000] "GET / HTTP/1.0" 304 -`
	r, err := ParseCLF(line)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != 0 || r.Status != 304 {
		t.Errorf("got size=%d status=%d", r.Size, r.Status)
	}
}

func TestParseCLFErrors(t *testing.T) {
	bad := []string{
		"",
		"host",
		"host - -",
		`host - - [notadate] "GET / HTTP/1.0" 200 1`,
		`host - - [05/Jul/1998:11:22:33 +0000] GET / 200 1`,
		`host - - [05/Jul/1998:11:22:33 +0000] "GET / HTTP/1.0" xx 1`,
		`host - - [05/Jul/1998:11:22:33 +0000] "GET / HTTP/1.0"`,
		`host - - [05/Jul/1998:11:22:33 +0000] "GET / HTTP/1.0" 200 zz`,
		`host - - [05/Jul/1998:11:22:33 +0000] "GETONLY" 200 1`,
	}
	for _, line := range bad {
		if _, err := ParseCLF(line); err == nil {
			t.Errorf("ParseCLF(%q) succeeded, want error", line)
		}
	}
}

func TestCLFRoundTrip(t *testing.T) {
	f := func(tsec uint32, status uint16, size uint32, cn, pn uint8) bool {
		r := Record{
			Time:   int64(tsec),
			Client: "c" + string(rune('a'+cn%26)),
			Method: "GET",
			URL:    "/d" + string(rune('a'+pn%26)) + "/f.html",
			Status: 200 + int(status%400),
			Size:   int64(size%1000000) + 1,
		}
		got, err := ParseCLF(FormatCLF(r))
		if err != nil {
			return false
		}
		return got == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReaderWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var in Log
	for i := 0; i < 100; i++ {
		in = append(in, Record{
			Time:   int64(900000000 + i*7),
			Client: "client" + string(rune('0'+rng.Intn(10))),
			Method: "GET",
			URL:    "/dir/f" + string(rune('0'+rng.Intn(10))) + ".html",
			Status: 200,
			Size:   int64(rng.Intn(5000) + 1),
		})
	}
	var sb strings.Builder
	w := NewWriter(&sb)
	if err := w.WriteAll(in); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out, err := NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d records, wrote %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("record %d: got %v, want %v", i, out[i], in[i])
		}
	}
}

func TestReaderSkipsBlankAndReportsLine(t *testing.T) {
	// The Reader takes either dialect line by line, so one file may mix
	// CLF and Squid lines; a line in neither is an error naming its line.
	input := "\n" + FormatCLF(Record{Time: 900000000, Client: "a", Method: "GET", URL: "/x", Status: 200, Size: 1}) +
		"\n\n" + squidLine + "\nnot a log line\n"
	rd := NewReader(strings.NewReader(input))
	if r, err := rd.Read(); err != nil || r.URL != "/x" || r.Client != "a" {
		t.Fatalf("CLF read: %+v, %v", r, err)
	}
	if r, err := rd.Read(); err != nil || r.URL != "www.foo.com/a/x.html" || r.Size != 4316 {
		t.Fatalf("Squid read: %+v, %v", r, err)
	}
	_, err := rd.Read()
	if err == nil || err == io.EOF {
		t.Fatalf("expected parse error, got %v", err)
	}
	if !strings.Contains(err.Error(), "line 5") {
		t.Errorf("error should name line 5 (blank lines counted): %v", err)
	}
}

func TestReaderEOF(t *testing.T) {
	rd := NewReader(strings.NewReader(""))
	if _, err := rd.Read(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

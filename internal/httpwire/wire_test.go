package httpwire

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"piggyback/internal/core"
)

func TestCanonicalKey(t *testing.T) {
	cases := []struct{ in, want string }{
		{"content-length", "Content-Length"},
		{"PIGGY-FILTER", "Piggy-Filter"},
		{"p-volume", "P-Volume"},
		{"te", "Te"},
		{"x", "X"},
	}
	for _, c := range cases {
		if got := CanonicalKey(c.in); got != c.want {
			t.Errorf("CanonicalKey(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestHeaderSetGet(t *testing.T) {
	h := make(Header)
	h.Set("piggy-filter", "maxpiggy=10")
	if got := h.Get("PIGGY-FILTER"); got != "maxpiggy=10" {
		t.Errorf("Get = %q", got)
	}
	if !h.Has("Piggy-Filter") {
		t.Error("Has failed")
	}
	h.Del("piggy-FILTER")
	if h.Has("Piggy-Filter") {
		t.Error("Del failed")
	}
}

func TestRequestTarget(t *testing.T) {
	cases := []struct {
		path, hostHeader   string
		wantHost, wantPath string
		wantErr            bool
	}{
		{path: "http://h/p", wantHost: "h", wantPath: "/p"},
		{path: "http://h", wantHost: "h", wantPath: "/"},
		{path: "http://h/p", hostHeader: "other", wantHost: "h", wantPath: "/p"},
		{path: "p", hostHeader: "h", wantHost: "h", wantPath: "/p"},
		{path: "/p", hostHeader: "h", wantHost: "h", wantPath: "/p"},
		{path: "/p", wantErr: true},
	}
	for _, c := range cases {
		req := NewRequest("GET", c.path)
		if c.hostHeader != "" {
			req.Header.Set("Host", c.hostHeader)
		}
		host, path, err := req.Target()
		if (err != nil) != c.wantErr || host != c.wantHost || path != c.wantPath {
			t.Errorf("Target(%q, Host %q) = %q, %q, %v; want %q, %q, error %v",
				c.path, c.hostHeader, host, path, err, c.wantHost, c.wantPath, c.wantErr)
		}
	}
}

func TestHTTPDateRoundTrip(t *testing.T) {
	const unix = 899637753 // 1998-07-05 11:22:33 UTC
	s := FormatHTTPDate(unix)
	if s != "Sun, 05 Jul 1998 11:22:33 GMT" {
		t.Errorf("FormatHTTPDate = %q", s)
	}
	got, err := ParseHTTPDate(s)
	if err != nil || got != unix {
		t.Errorf("ParseHTTPDate = %d, %v", got, err)
	}
	if _, err := ParseHTTPDate("yesterday"); err == nil {
		t.Error("bad date accepted")
	}
}

func roundTripRequest(t *testing.T, req *Request) *Request {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteRequest(bufio.NewWriter(&buf), req); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("ReadRequest: %v\nwire:\n%s", err, buf.String())
	}
	return got
}

func roundTripResponse(t *testing.T, resp *Response, noBody bool) *Response {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteResponse(bufio.NewWriter(&buf), resp, noBody); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResponse(bufio.NewReader(&buf), noBody)
	if err != nil {
		t.Fatalf("ReadResponse: %v\nwire:\n%s", err, buf.String())
	}
	return got
}

func TestRequestRoundTrip(t *testing.T) {
	req := NewRequest("GET", "/mafia.html")
	req.Header.Set("Host", "sig.com")
	req.Header.Set("TE", "chunked")
	req.Header.Set("Piggy-Filter", `maxpiggy=10; rpv="3,4"`)
	got := roundTripRequest(t, req)
	if got.Method != "GET" || got.Path != "/mafia.html" || got.Proto != "HTTP/1.1" {
		t.Errorf("request line: %+v", got)
	}
	if got.Header.Get("Piggy-Filter") != `maxpiggy=10; rpv="3,4"` {
		t.Errorf("filter header: %q", got.Header.Get("Piggy-Filter"))
	}
	if !got.AcceptsChunkedTrailer() {
		t.Error("TE: chunked not recognized")
	}
}

func TestRequestWithBodyRoundTrip(t *testing.T) {
	req := NewRequest("POST", "/submit")
	req.Body = []byte("key=value&x=1")
	got := roundTripRequest(t, req)
	if string(got.Body) != "key=value&x=1" {
		t.Errorf("body = %q", got.Body)
	}
}

func TestResponseContentLengthRoundTrip(t *testing.T) {
	resp := NewResponse(200)
	resp.Header.Set("Last-Modified", FormatHTTPDate(899637753))
	resp.Body = []byte("<html>hello</html>")
	got := roundTripResponse(t, resp, false)
	if got.Status != 200 || string(got.Body) != "<html>hello</html>" {
		t.Errorf("got %+v body=%q", got, got.Body)
	}
	if lm, ok := got.LastModified(); !ok || lm != 899637753 {
		t.Errorf("LastModified = %d, %v", lm, ok)
	}
	if got.Trailer != nil {
		t.Error("unexpected trailer")
	}
}

func TestResponseChunkedTrailerRoundTrip(t *testing.T) {
	resp := NewResponse(200)
	resp.Body = []byte("body bytes here")
	resp.Trailer = Header{}
	resp.Trailer.Set("P-Volume", "17; /a/b.html 866268400 4096")
	got := roundTripResponse(t, resp, false)
	if string(got.Body) != "body bytes here" {
		t.Errorf("body = %q", got.Body)
	}
	if got.Trailer.Get("P-Volume") != "17; /a/b.html 866268400 4096" {
		t.Errorf("trailer = %v", got.Trailer)
	}
}

func TestChunkedWireFormat(t *testing.T) {
	// The response must follow §2.3: Trailer header announcing P-Volume,
	// chunked body, zero-length chunk, trailer field.
	resp := NewResponse(200)
	resp.Body = []byte("xyz")
	resp.Trailer = Header{}
	resp.Trailer.Set("P-Volume", "5; /a 1 2")
	var buf bytes.Buffer
	if err := WriteResponse(bufio.NewWriter(&buf), resp, false); err != nil {
		t.Fatal(err)
	}
	wire := buf.String()
	for _, want := range []string{
		"HTTP/1.1 200 OK\r\n",
		"Trailer: P-Volume\r\n",
		"Transfer-Encoding: chunked\r\n",
		"3\r\nxyz\r\n",
		"0\r\n",
		"P-Volume: 5; /a 1 2\r\n",
	} {
		if !strings.Contains(wire, want) {
			t.Errorf("wire missing %q:\n%s", want, wire)
		}
	}
	if strings.Contains(wire, "Content-Length") {
		t.Errorf("chunked response must not carry Content-Length:\n%s", wire)
	}
}

func TestNotModifiedWithPiggybackTrailer(t *testing.T) {
	// A 304 can still carry a piggyback in a chunked trailer.
	resp := NewResponse(304)
	resp.Trailer = Header{}
	resp.Trailer.Set("P-Volume", "9; /x 5 6")
	got := roundTripResponse(t, resp, false)
	if got.Status != 304 {
		t.Fatalf("status = %d", got.Status)
	}
	if len(got.Body) != 0 {
		t.Errorf("304 body = %q", got.Body)
	}
	if got.Trailer.Get("P-Volume") != "9; /x 5 6" {
		t.Errorf("trailer = %v", got.Trailer)
	}
}

func TestPlain304HasNoBody(t *testing.T) {
	resp := NewResponse(304)
	got := roundTripResponse(t, resp, false)
	if got.Status != 304 || len(got.Body) != 0 || got.Trailer != nil {
		t.Errorf("got %+v", got)
	}
}

func TestHeadResponseKeepsFraming(t *testing.T) {
	resp := NewResponse(200)
	resp.Body = []byte("should not be sent")
	var buf bytes.Buffer
	if err := WriteResponse(bufio.NewWriter(&buf), resp, true); err != nil {
		t.Fatal(err)
	}
	wire := buf.String()
	if !strings.Contains(wire, "Content-Length: 18") {
		t.Errorf("HEAD response lost Content-Length:\n%s", wire)
	}
	if strings.Contains(wire, "should not be sent") {
		t.Errorf("HEAD response carried a body:\n%s", wire)
	}
	got, err := ReadResponse(bufio.NewReader(&buf), true)
	if err != nil || len(got.Body) != 0 {
		t.Errorf("reading HEAD response: %v body=%q", err, got.Body)
	}
}

func TestReadRequestErrors(t *testing.T) {
	bad := []string{
		"GARBAGE\r\n\r\n",
		"GET /\r\n\r\n",
		"GET / SPDY/3\r\n\r\n",
		"GET / HTTP/1.1\r\nBad Header Line\r\n\r\n",
		"GET / HTTP/1.1\r\nBad Key: v\r\n\r\n",
	}
	for _, s := range bad {
		if _, err := ReadRequest(bufio.NewReader(strings.NewReader(s))); err == nil {
			t.Errorf("ReadRequest(%q) succeeded", s)
		}
	}
}

func TestReadResponseErrors(t *testing.T) {
	bad := []string{
		"HTTP/1.1 xyz OK\r\n\r\n",
		"NOTHTTP 200 OK\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: -4\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
	}
	for _, s := range bad {
		if _, err := ReadResponse(bufio.NewReader(strings.NewReader(s)), false); err == nil {
			t.Errorf("ReadResponse(%q) succeeded", s)
		}
	}
}

func TestReadResponseToEOF(t *testing.T) {
	// No framing headers: body extends to connection close (HTTP/1.0
	// style).
	s := "HTTP/1.1 200 OK\r\n\r\nraw body to eof"
	got, err := ReadResponse(bufio.NewReader(strings.NewReader(s)), false)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Body) != "raw body to eof" {
		t.Errorf("body = %q", got.Body)
	}
}

func TestResponseRoundTripProperty(t *testing.T) {
	f := func(body []byte, status uint8, withTrailer bool) bool {
		// Status range avoids 304, whose body is dropped by design.
		resp := NewResponse(200 + int(status)%99)
		resp.Body = body
		if withTrailer {
			resp.Trailer = Header{}
			resp.Trailer.Set("P-Volume", "1; /x 2 3")
		}
		var buf bytes.Buffer
		if err := WriteResponse(bufio.NewWriter(&buf), resp, false); err != nil {
			return false
		}
		got, err := ReadResponse(bufio.NewReader(&buf), false)
		if err != nil {
			return false
		}
		if got.Status != resp.Status {
			return false
		}
		if !bytes.Equal(got.Body, body) && !(len(got.Body) == 0 && len(body) == 0) {
			return false
		}
		if withTrailer && got.Trailer.Get("P-Volume") != "1; /x 2 3" {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPiggybackHelpers(t *testing.T) {
	req := NewRequest("GET", "/r.html")
	filter := core.Filter{MaxPiggy: 10, RPV: []core.VolumeID{3, 4}}
	SetFilter(req, filter)
	if !req.AcceptsChunkedTrailer() {
		t.Error("SetFilter must add TE: chunked")
	}
	got, ok := GetFilter(req)
	if !ok || got.MaxPiggy != 10 || len(got.RPV) != 2 {
		t.Errorf("GetFilter = %+v, %v", got, ok)
	}

	resp := NewResponse(200)
	msg := core.Message{Volume: 7, Elements: []core.Element{{URL: "/a", Size: 1, LastModified: 2}}}
	AttachPiggyback(resp, msg)
	rt := roundTripResponse(t, resp, false)
	got2, ok := ExtractPiggyback(rt)
	if !ok || got2.Volume != 7 || len(got2.Elements) != 1 || got2.Elements[0].URL != "/a" {
		t.Errorf("ExtractPiggyback = %+v, %v", got2, ok)
	}
}

func TestGetFilterAbsentOrMalformed(t *testing.T) {
	req := NewRequest("GET", "/x")
	if _, ok := GetFilter(req); ok {
		t.Error("absent filter reported present")
	}
	req.Header.Set(FieldPiggyFilter, "pt=nonsense")
	if _, ok := GetFilter(req); ok {
		t.Error("malformed filter reported present")
	}
}

func TestExtractPiggybackAbsent(t *testing.T) {
	resp := NewResponse(200)
	if _, ok := ExtractPiggyback(resp); ok {
		t.Error("absent piggyback reported present")
	}
	resp.Trailer = Header{}
	resp.Trailer.Set(FieldPVolume, "not parseable")
	if _, ok := ExtractPiggyback(resp); ok {
		t.Error("malformed piggyback reported present")
	}
}

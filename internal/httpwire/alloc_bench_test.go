package httpwire

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"testing"

	"piggyback/internal/core"
)

// Allocation-budget benchmarks for the wire hot paths. The counts pinned
// by the companion TestAllocBudgets are the regression gate: the workers=64
// throughput cliff was allocation churn in exactly these functions, so a
// change that re-introduces per-header-line formatting or per-exchange
// buffer allocation fails the budget instead of silently shifting the
// cliff back.

// benchResponse builds a representative proxy hit response: status line,
// four header fields, a 2 KiB body.
func benchResponse() *Response {
	resp := NewResponse(200)
	resp.Body = bytes.Repeat([]byte("x"), 2048)
	resp.Header.Set("Content-Type", "text/html")
	resp.Header.Set("Last-Modified", "Fri, 05 Jul 1998 12:02:33 GMT")
	resp.Header.Set("X-Cache", "HIT")
	return resp
}

// benchTrailerResponse adds a piggyback trailer, forcing chunked framing.
func benchTrailerResponse() *Response {
	resp := benchResponse()
	resp.Trailer = Header{}
	resp.Trailer.Set("P-Volume", "17; /a/b.html 866268400 4096, /a/c.gif 866268401 512")
	return resp
}

// benchRequest builds a representative proxy-bound request: method line and
// four header fields, no body.
func benchRequest() *Request {
	req := NewRequest("GET", "http://www.bench.test/a/r01.html")
	req.Header.Set("Host", "www.bench.test")
	req.Header.Set("TE", "chunked")
	req.Header.Set("Piggy-Filter", "maxpiggy=10")
	return req
}

func BenchmarkWriteResponse(b *testing.B) {
	run := func(b *testing.B, resp *Response) {
		bw := bufio.NewWriter(io.Discard)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := WriteResponse(bw, resp, false); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("plain", func(b *testing.B) { run(b, benchResponse()) })
	b.Run("trailer", func(b *testing.B) { run(b, benchTrailerResponse()) })
}

func BenchmarkWriteRequest(b *testing.B) {
	req := benchRequest()
	bw := bufio.NewWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteRequest(bw, req); err != nil {
			b.Fatal(err)
		}
	}
}

// replayReader replays one serialized message forever without allocating.
type replayReader struct {
	msg []byte
	off int
}

func (r *replayReader) Read(p []byte) (int, error) {
	if r.off == len(r.msg) {
		r.off = 0
	}
	n := copy(p, r.msg[r.off:])
	r.off += n
	return n, nil
}

func serializeRequest(tb testing.TB, req *Request) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteRequest(bufio.NewWriter(&buf), req); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func serializeResponse(tb testing.TB, resp *Response) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteResponse(bufio.NewWriter(&buf), resp, false); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkReadRequest(b *testing.B) {
	wire := serializeRequest(b, benchRequest())
	br := bufio.NewReader(&replayReader{msg: wire})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadRequest(br); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadResponse(b *testing.B) {
	run := func(b *testing.B, wire []byte) {
		br := bufio.NewReader(&replayReader{msg: wire})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ReadResponse(br, false); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("plain", func(b *testing.B) { run(b, serializeResponse(b, benchResponse())) })
	b.Run("trailer", func(b *testing.B) { run(b, serializeResponse(b, benchTrailerResponse())) })
}

// BenchmarkChunkedTrailerRoundTrip writes and reads back a response
// whose piggyback rides in a chunked trailer.
func BenchmarkChunkedTrailerRoundTrip(b *testing.B) {
	resp := NewResponse(200)
	resp.Body = bytes.Repeat([]byte("x"), 1530)
	resp.Trailer = Header{}
	msg := core.Message{Volume: 17, Elements: []core.Element{
		{URL: "/products/java/docs/page-0001-index.html", Size: 13900, LastModified: 899637753},
		{URL: "/products/java/docs/inline-img-0001-0.gif", Size: 2000, LastModified: 899630000},
	}}
	AttachPiggyback(resp, msg)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteResponse(bufio.NewWriter(&buf), resp, false); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadResponse(bufio.NewReader(&buf), false); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAllocBudgets pins the allocs/op of each benchmark above with
// testing.AllocsPerRun, on the same messages. A budget is the count
// measured when it was set: a rise fails, and so does a fall, which asks
// for the lower number. WriteResponse/plain measured ~30 allocs/op before
// the fmt removal and key-scratch pooling, 0 after.
func TestAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets need steady-state runs")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector, so the pooled scratch is not steady")
	}
	bw := bufio.NewWriter(io.Discard)
	// Pre-built messages: serialization does not mutate them, so the runs
	// measure the write path alone with no construction cost to subtract.
	plain := benchResponse()
	trailer := benchTrailerResponse()
	req := benchRequest()
	write := func(resp *Response) func() {
		return func() {
			if err := WriteResponse(bw, resp, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	read := func(wire []byte, parse func(*bufio.Reader) error) func() {
		br := bufio.NewReader(&replayReader{msg: wire})
		return func() {
			if err := parse(br); err != nil {
				t.Fatal(err)
			}
		}
	}
	readResponse := func(br *bufio.Reader) error {
		_, err := ReadResponse(br, false)
		return err
	}
	cases := []struct {
		name   string
		budget float64
		fn     func()
	}{
		{"WriteResponse/plain", 0, write(plain)},
		// The chunked/trailer path shares the pooled segment vector with
		// the plain path: chunk-size hex, tail framing, and trailer fields
		// all land in the pooled head scratch.
		{"WriteResponse/trailer", 0, write(trailer)},
		{"WriteRequest", 0, func() {
			if err := WriteRequest(bw, req); err != nil {
				t.Fatal(err)
			}
		}},
		{"ReadRequest", 8, read(serializeRequest(t, req), func(br *bufio.Reader) error {
			_, err := ReadRequest(br)
			return err
		})},
		{"ReadResponse/plain", 9, read(serializeResponse(t, plain), readResponse)},
		{"ReadResponse/trailer", 14, read(serializeResponse(t, trailer), readResponse)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// One warmup run primes the scratch pools.
			tc.fn()
			if got := testing.AllocsPerRun(200, tc.fn); got != tc.budget {
				t.Errorf("%s: %v allocs/op, budget %v", tc.name, got, tc.budget)
			}
		})
	}
}

// TestWriteVecTCPAllocBudget pins the vectored fast path over a real
// socket: one response per writev must cost at most the unavoidable
// net.Buffers header escape — no per-segment or per-header allocation.
func TestWriteVecTCPAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets need steady-state runs")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		io.Copy(io.Discard, c)
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	resp := benchResponse()
	run := func() {
		v := getVec()
		v.appendResponse(resp, false)
		if err := writeVec(conn, v); err != nil {
			t.Fatal(err)
		}
		putVec(v)
	}
	run()
	const budget = 2
	if got := testing.AllocsPerRun(200, run); got > budget {
		t.Errorf("writeVec over TCP: %.1f allocs/op, budget %d", got, budget)
	}
}

package httpwire

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"piggyback/internal/faultconn"
	"piggyback/internal/obs"
)

// writeCounter counts Write calls on a net.Conn, so a test can prove a
// faulted conn really did split the vector into many short writes.
type writeCounter struct {
	net.Conn
	n atomic.Int64
}

func (w *writeCounter) Write(b []byte) (int, error) {
	w.n.Add(1)
	return w.Conn.Write(b)
}

// vecCases enumerates the framing shapes the vectored writer produces:
// Content-Length bodies, chunked bodies with trailers, trailer-only 304s,
// HEAD framing without body bytes, and requests with bodies.
func vecCases() map[string]func(v *wvec) {
	plain := NewResponse(200)
	plain.Header.Set("Content-Type", "text/html")
	plain.Body = []byte("<html>short-write survivor</html>")

	trailer := NewResponse(200)
	trailer.Body = []byte("chunked body bytes")
	trailer.Trailer = Header{}
	trailer.Trailer.Set("P-Volume", "17; /a/b.html 866268400 4096")

	notMod := NewResponse(304)
	notMod.Trailer = Header{}
	notMod.Trailer.Set("P-Volume", "9; /x 5 6")

	head := NewResponse(200)
	head.Body = []byte("head body is framed, not sent")

	req := NewRequest("POST", "/submit")
	req.Header.Set("Host", "sig.com")
	req.Body = []byte("key=value")

	return map[string]func(v *wvec){
		"plain":   func(v *wvec) { v.appendResponse(plain, false) },
		"trailer": func(v *wvec) { v.appendResponse(trailer, false) },
		"304":     func(v *wvec) { v.appendResponse(notMod, false) },
		"head":    func(v *wvec) { v.appendResponse(head, true) },
		"request": func(v *wvec) { v.appendRequest(req) },
		"batch": func(v *wvec) {
			v.appendResponse(plain, false)
			v.appendResponse(trailer, false)
			v.appendResponse(notMod, false)
		},
	}
}

// TestWriteVecShortWrites drives every framing shape through a conn that
// accepts at most 3 bytes per Write — the adversarial stand-in for a
// congested socket splitting a vectored write — and checks the peer sees
// byte-identical output. writeVec's fallback loop must tolerate the
// contract-violating (n < len, nil) returns.
func TestWriteVecShortWrites(t *testing.T) {
	for name, build := range vecCases() {
		t.Run(name, func(t *testing.T) {
			want := vecBytes(build)

			client, server := net.Pipe()
			defer server.Close()
			wc := &writeCounter{Conn: client}
			fc := faultconn.Wrap(wc, faultconn.Fault{MaxWriteBytes: 3})

			errc := make(chan error, 1)
			go func() {
				v := getVec()
				build(v)
				err := writeVec(fc, v)
				putVec(v)
				fc.Close()
				errc <- err
			}()

			got, err := io.ReadAll(server)
			if err != nil {
				t.Fatalf("reading peer: %v", err)
			}
			if err := <-errc; err != nil {
				t.Fatalf("writeVec: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("short-write wire mismatch:\ngot  %q\nwant %q", got, want)
			}
			if n := wc.n.Load(); n < int64(len(want)/3) {
				t.Fatalf("fault did not split writes: %d calls for %d bytes", n, len(want))
			}
		})
	}
}

// TestShortWriteResponseParses round-trips a trailered response through the
// short-writing conn and the real parser: framing, body, and piggyback
// trailer all survive 3-byte fragments.
func TestShortWriteResponseParses(t *testing.T) {
	resp := NewResponse(200)
	resp.Body = []byte("body bytes here")
	resp.Trailer = Header{}
	resp.Trailer.Set("P-Volume", "17; /a/b.html 866268400 4096")

	client, server := net.Pipe()
	defer server.Close()
	fc := faultconn.Wrap(client, faultconn.Fault{MaxWriteBytes: 3})

	errc := make(chan error, 1)
	go func() {
		v := getVec()
		v.appendResponse(resp, false)
		err := writeVec(fc, v)
		putVec(v)
		fc.Close()
		errc <- err
	}()

	server.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := ReadResponse(bufio.NewReader(server), false)
	if err != nil {
		t.Fatalf("ReadResponse: %v", err)
	}
	if werr := <-errc; werr != nil {
		t.Fatalf("writeVec: %v", werr)
	}
	if got.Status != 200 || string(got.Body) != "body bytes here" {
		t.Fatalf("got %d %q", got.Status, got.Body)
	}
	if got.Trailer.Get("P-Volume") != "17; /a/b.html 866268400 4096" {
		t.Fatalf("trailer = %v", got.Trailer)
	}
}

// vecBytes serializes a vector through the buffered compatibility path,
// which shares the segment construction with writeVec — the reference
// output for the short-write comparison.
func vecBytes(build func(v *wvec)) []byte {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	v := getVec()
	build(v)
	if err := v.writeTo(bw); err != nil {
		panic(err)
	}
	putVec(v)
	bw.Flush()
	return buf.Bytes()
}

// TestVectoredWireGolden pins the exact bytes of the vectored serialization
// so the writev restructuring cannot drift from the historical bufio
// output (headers sorted, CRLF framing, chunked tail shape).
func TestVectoredWireGolden(t *testing.T) {
	plain := NewResponse(200)
	plain.Header.Set("Content-Type", "text/html")
	plain.Body = []byte("hello")
	var buf bytes.Buffer
	if err := WriteResponse(bufio.NewWriter(&buf), plain, false); err != nil {
		t.Fatal(err)
	}
	wantPlain := "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Type: text/html\r\n\r\nhello"
	if buf.String() != wantPlain {
		t.Errorf("plain wire:\ngot  %q\nwant %q", buf.String(), wantPlain)
	}

	chunked := NewResponse(200)
	chunked.Body = []byte("xyz")
	chunked.Trailer = Header{}
	chunked.Trailer.Set("P-Volume", "5; /a 1 2")
	buf.Reset()
	if err := WriteResponse(bufio.NewWriter(&buf), chunked, false); err != nil {
		t.Fatal(err)
	}
	wantChunked := "HTTP/1.1 200 OK\r\nTrailer: P-Volume\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"3\r\nxyz\r\n0\r\nP-Volume: 5; /a 1 2\r\n\r\n"
	if buf.String() != wantChunked {
		t.Errorf("chunked wire:\ngot  %q\nwant %q", buf.String(), wantChunked)
	}
}

// TestWvecResetDropsBodyRefs guards the pool-safety invariant: a recycled
// vector must not pin message bodies (cached documents) in segment slots.
func TestWvecResetDropsBodyRefs(t *testing.T) {
	v := getVec()
	resp := NewResponse(200)
	resp.Body = []byte("cached body")
	v.appendResponse(resp, false)
	segs := v.segs[:cap(v.segs)]
	v.reset()
	for i := range segs {
		if segs[i] != nil {
			t.Fatalf("seg %d still referenced after reset", i)
		}
	}
	putVec(v)
}

// TestServerCoalescesPipelinedResponses proves the read-side coalescing +
// vectored write combination: three requests pipelined in one TCP segment
// come back as one writev burst — wire.server.syscalls.writes counts 1
// write for 3 responses.
func TestServerCoalescesPipelinedResponses(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv := &Server{
		Handler: HandlerFunc(echoHandler),
		Obs:     obs.NewWireMetrics(reg, "wire.server"),
	}
	go srv.Serve(l)
	defer srv.Close()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var pipelined bytes.Buffer
	bw := bufio.NewWriter(&pipelined)
	for i := 0; i < 3; i++ {
		if err := WriteRequest(bw, NewRequest("GET", fmt.Sprintf("/p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	bw.Flush()
	if _, err := conn.Write(pipelined.Bytes()); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	for i := 0; i < 3; i++ {
		resp, err := ReadResponse(br, false)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if want := fmt.Sprintf("echo:/p%d", i); string(resp.Body) != want {
			t.Fatalf("response %d body = %q, want %q", i, resp.Body, want)
		}
	}

	// The server records a write after writeVec returns, which can be
	// after the client has read what it wrote.
	waitFor(t, "the server to record its writes", func() bool { return srv.Obs.WriteBatch.Snapshot().Sum == 3 })
	writes := srv.Obs.WriteOps.Load()
	if writes >= 3 {
		t.Errorf("3 pipelined responses took %d write syscalls; coalescing inactive", writes)
	}
	if srv.Obs.WriteBatch.Count() == 0 {
		t.Error("no response batch recorded")
	}
	if srv.Obs.ReadOps.Load() == 0 {
		t.Error("read syscalls not counted")
	}
}

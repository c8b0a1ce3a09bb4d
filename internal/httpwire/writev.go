package httpwire

import (
	"bufio"
	"io"
	"net"
	"sort"
	"strconv"
	"sync"
)

// Vectored message serialization. Messages are built as a segment vector —
// head bytes (status/request line + headers + framing) appended into one
// pooled scratch buffer, bodies referenced in place with zero copy, chunked
// tails appended after — and the whole vector goes to the socket as a
// single writev (net.Buffers) instead of buffered writes plus Flush. One
// response, or a whole coalesced batch of responses, costs one write
// syscall. Profiles of a 64-worker load run motivated this: after the
// PR 7 allocation audit, ~48% of CPU samples were raw socket syscalls.

// wvec accumulates one or more serialized messages as writev segments.
// segs may alias both head (serialized framing bytes) and caller-owned
// message bodies; reset drops the body references so a pooled wvec never
// retains a cached body.
type wvec struct {
	segs [][]byte
	head []byte // framing scratch; appended segments slice into it
	msgs int    // messages appended since the last reset
}

var vecPool = sync.Pool{New: func() any {
	return &wvec{segs: make([][]byte, 0, 16), head: make([]byte, 0, 1024)}
}}

func getVec() *wvec { return vecPool.Get().(*wvec) }

func putVec(v *wvec) {
	v.reset()
	vecPool.Put(v)
}

// reset clears the vector for reuse, zeroing segment entries so pooled
// vectors don't pin message bodies (head's capacity is kept).
func (v *wvec) reset() {
	for i := range v.segs {
		v.segs[i] = nil
	}
	v.segs = v.segs[:0]
	v.head = v.head[:0]
	v.msgs = 0
}

// mark opens a head segment: bytes appended to v.head after mark are
// sealed into one segment by seal. Append-growth of head is safe: earlier
// sealed segments keep pointing into the superseded array, whose contents
// never change.
func (v *wvec) mark() int { return len(v.head) }

func (v *wvec) seal(mark int) {
	if len(v.head) > mark {
		v.segs = append(v.segs, v.head[mark:])
	}
}

// body appends a caller-owned segment (message body) without copying.
func (v *wvec) body(b []byte) {
	if len(b) > 0 {
		v.segs = append(v.segs, b)
	}
}

// size returns the total byte length of the queued segments.
func (v *wvec) size() int {
	n := 0
	for _, s := range v.segs {
		n += len(s)
	}
	return n
}

// appendHeaderX appends h's fields plus up to two extra fields (empty key
// means absent) in one sorted walk, omitting skip. An extra overrides a
// same-named field in h. When x1int is set, x1's value is the integer x1n
// rendered in place — Content-Length goes out without a strconv.Itoa
// string allocation.
func appendHeaderX(dst []byte, h Header, skip, x1k, x1v string, x1n int64, x1int bool, x2k, x2v string) []byte {
	scratch := getKeyScratch()
	keys := *scratch
	for k := range h {
		if k == skip || k == x1k || k == x2k {
			continue
		}
		keys = append(keys, k)
	}
	if x1k != "" {
		keys = append(keys, x1k)
	}
	if x2k != "" {
		keys = append(keys, x2k)
	}
	sort.Strings(keys)
	*scratch = keys // keep any growth for the pool
	for _, k := range keys {
		dst = append(dst, k...)
		dst = append(dst, ": "...)
		switch k {
		case x1k:
			if x1int {
				dst = strconv.AppendInt(dst, x1n, 10)
			} else {
				dst = append(dst, x1v...)
			}
		case x2k:
			dst = append(dst, x2v...)
		default:
			dst = append(dst, h[k]...)
		}
		dst = append(dst, '\r', '\n')
	}
	putKeyScratch(scratch)
	return dst
}

// appendRequest queues req's serialization onto the vector. Requests with
// a body are framed with Content-Length.
func (v *wvec) appendRequest(req *Request) {
	proto := req.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	m := v.mark()
	h := v.head
	h = append(h, req.Method...)
	h = append(h, ' ')
	h = append(h, req.Path...)
	h = append(h, ' ')
	h = append(h, proto...)
	h = append(h, '\r', '\n')
	var clk string
	if len(req.Body) > 0 || req.Method == "POST" || req.Method == "PUT" {
		clk = "Content-Length"
	}
	h = appendHeaderX(h, req.Header, "", clk, "", int64(len(req.Body)), true, "", "")
	h = append(h, '\r', '\n')
	v.head = h
	v.seal(m)
	v.body(req.Body)
	v.msgs++
}

// appendResponse queues resp's serialization onto the vector.
//
// When resp.Trailer is non-empty the body is sent with chunked
// transfer-coding: a Trailer header names the trailer fields, the body goes
// out in one chunk immediately (never delayed while the piggyback is
// constructed, §2.3), and the trailer fields follow the mandatory
// zero-length chunk. Otherwise the body is framed with Content-Length.
// noBody suppresses body bytes (HEAD responses) while keeping the framing
// headers. Wire output is byte-identical to the historical bufio path.
func (v *wvec) appendResponse(resp *Response, noBody bool) {
	proto := resp.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	reason := resp.Reason
	if reason == "" {
		reason = StatusText(resp.Status)
	}
	m := v.mark()
	h := v.head
	h = append(h, proto...)
	h = append(h, ' ')
	h = strconv.AppendInt(h, int64(resp.Status), 10)
	h = append(h, ' ')
	h = append(h, reason...)
	h = append(h, '\r', '\n')

	chunked := len(resp.Trailer) > 0
	switch {
	case chunked:
		// §2.3: "The server must include a Trailer header field
		// indicating the later appearance of the P-volume response
		// header field."
		h = appendHeaderX(h, resp.Header, "Content-Length",
			"Trailer", trailerNames(resp.Trailer), 0, false,
			"Transfer-Encoding", "chunked")
	case resp.Status != 304:
		h = appendHeaderX(h, resp.Header, "",
			"Content-Length", "", int64(len(resp.Body)), true, "", "")
	default:
		h = appendHeaderX(h, resp.Header, "", "", "", 0, false, "", "")
	}
	h = append(h, '\r', '\n')

	switch {
	case chunked:
		withBody := !noBody && len(resp.Body) > 0
		if withBody {
			h = strconv.AppendInt(h, int64(len(resp.Body)), 16)
			h = append(h, '\r', '\n')
		}
		v.head = h
		v.seal(m)
		if withBody {
			v.body(resp.Body)
			m = v.mark()
			h = append(v.head, '\r', '\n')
		} else {
			m = v.mark()
			h = v.head
		}
		// Mandatory zero-length chunk, then the trailer section.
		h = append(h, "0\r\n"...)
		h = appendHeaderX(h, resp.Trailer, "", "", "", 0, false, "", "")
		h = append(h, '\r', '\n')
		v.head = h
		v.seal(m)
	default:
		v.head = h
		v.seal(m)
		if !noBody && resp.Status != 304 {
			v.body(resp.Body)
		}
	}
	v.msgs++
}

// writeTo writes the queued segments through a bufio.Writer (the
// compatibility path for callers holding a buffered writer; no flush).
func (v *wvec) writeTo(bw *bufio.Writer) error {
	for _, s := range v.segs {
		if _, err := bw.Write(s); err != nil {
			return err
		}
	}
	return nil
}

// writeVec writes the queued segments to w in one vectored write where the
// platform allows. On a *net.TCPConn the segments go out as one writev
// syscall via net.Buffers (the runtime loops on partial writev results).
// Any other writer gets a sequential per-segment loop that tolerates short
// writes — net.Buffers.WriteTo is NOT used there because a generic writer
// returning (n < len, nil) would silently lose the remainder.
//
// Either way the vector is consumed; reset (or putVec) before reuse.
func writeVec(w io.Writer, v *wvec) error {
	if len(v.segs) == 0 {
		return nil
	}
	if tc, ok := w.(*net.TCPConn); !raceEnabled && ok {
		bufs := net.Buffers(v.segs)
		_, err := bufs.WriteTo(tc)
		return err
	}
	for _, s := range v.segs {
		for len(s) > 0 {
			n, err := w.Write(s)
			if err != nil {
				return err
			}
			if n <= 0 {
				return io.ErrShortWrite
			}
			s = s[n:]
		}
	}
	return nil
}

package httpwire

import (
	"bufio"
	"sort"
)

// The serializers avoid fmt and per-message map clones: profiles of
// a 64-worker load run showed per-header-line fmt.Fprintf boxing and the
// Header.Clone needed to inject framing fields dominating hot-path
// allocation. Framing fields (Content-Length, Transfer-Encoding, Trailer)
// are merged into the sorted key walk as "extras", and the sorted key
// slice itself comes from a pool. Since the writev rework the single
// source of serialization truth is the segment builders in writev.go
// (appendRequest/appendResponse); the bufio entry points below feed the
// same segments through a buffered writer for callers that hold one.

// WriteRequest serializes req to bw and flushes. Requests with a body are
// framed with Content-Length.
func WriteRequest(bw *bufio.Writer, req *Request) error {
	v := getVec()
	v.appendRequest(req)
	err := v.writeTo(bw)
	putVec(v)
	if err != nil {
		return err
	}
	return bw.Flush()
}

// trailerNames renders the sorted, comma-separated Trailer header value.
// The single-field trailer (one P-Volume field, the protocol's usual case)
// needs no building at all.
func trailerNames(t Header) string {
	if len(t) == 1 {
		for k := range t {
			return k
		}
	}
	scratch := getKeyScratch()
	defer putKeyScratch(scratch)
	keys := *scratch
	for k := range t {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	*scratch = keys
	n := 0
	for _, k := range keys {
		n += len(k) + 2
	}
	out := make([]byte, 0, n)
	for i, k := range keys {
		if i > 0 {
			out = append(out, ", "...)
		}
		out = append(out, k...)
	}
	return string(out)
}

// WriteResponse serializes resp to bw and flushes.
//
// When resp.Trailer is non-empty the body is sent with chunked
// transfer-coding: a Trailer header names the trailer fields, the body goes
// out in one chunk immediately (never delayed while the piggyback is
// constructed, §2.3), and the trailer fields follow the mandatory
// zero-length chunk. Otherwise the body is framed with Content-Length.
// noBody suppresses body bytes (HEAD responses) while keeping the framing
// headers.
func WriteResponse(bw *bufio.Writer, resp *Response, noBody bool) error {
	v := getVec()
	v.appendResponse(resp, noBody)
	err := v.writeTo(bw)
	putVec(v)
	if err != nil {
		return err
	}
	return bw.Flush()
}

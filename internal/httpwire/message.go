// Package httpwire is a from-scratch HTTP/1.1 subset over net.Conn,
// implementing exactly what the piggybacking protocol needs (§2.3):
// request/response framing with Content-Length bodies, chunked
// transfer-coding with trailer fields (the P-Volume response header rides
// in the trailer so the body is never delayed while the piggyback is
// constructed), persistent connections, and conditional requests
// (If-Modified-Since / 304 Not Modified).
package httpwire

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Header holds message header fields. Keys are stored in canonical form
// (Piggy-Filter, Content-Length). Each field is single-valued, which the
// piggybacking protocol never needs to exceed.
type Header map[string]string

// CanonicalKey converts a header field name to canonical form: the first
// letter and any letter following a hyphen upper-cased, the rest lowered.
// Keys already in canonical form — every key this package itself writes —
// are returned as-is without allocating, which keeps Header.Set/Get off the
// allocator on the request hot path.
func CanonicalKey(k string) string {
	upper := true
	for i := 0; i < len(k); i++ {
		c := k[i]
		if (upper && 'a' <= c && c <= 'z') || (!upper && 'A' <= c && c <= 'Z') {
			return canonicalKeySlow(k)
		}
		upper = c == '-'
	}
	return k
}

func canonicalKeySlow(k string) string {
	b := []byte(k)
	upper := true
	for i, c := range b {
		switch {
		case upper && 'a' <= c && c <= 'z':
			b[i] = c - ('a' - 'A')
		case !upper && 'A' <= c && c <= 'Z':
			b[i] = c + ('a' - 'A')
		}
		upper = c == '-'
	}
	return string(b)
}

// Set stores a field, canonicalizing the key.
func (h Header) Set(key, value string) { h[CanonicalKey(key)] = value }

// Add appends a field value: a repeated field is joined onto the existing
// value with ", ", the RFC 7230 §3.2.2 equivalence for fields whose values
// are comma-separated lists. Message parsing uses Add so duplicate lines
// (repeated Piggy-Hits, split Cache-Control) combine instead of the last
// line silently overwriting the rest.
func (h Header) Add(key, value string) {
	k := CanonicalKey(key)
	if prev, ok := h[k]; ok && prev != "" {
		h[k] = prev + ", " + value
		return
	}
	h[k] = value
}

// Get returns the field value, or "" when absent.
func (h Header) Get(key string) string { return h[CanonicalKey(key)] }

// Has reports whether the field is present.
func (h Header) Has(key string) bool {
	_, ok := h[CanonicalKey(key)]
	return ok
}

// Del removes a field.
func (h Header) Del(key string) { delete(h, CanonicalKey(key)) }

// Clone copies the header.
func (h Header) Clone() Header {
	out := make(Header, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

// Request is an HTTP/1.1 request message.
type Request struct {
	Method string
	Path   string
	Proto  string // "HTTP/1.1"
	Header Header
	Body   []byte
	// RemoteAddr is the peer address, set by Server for incoming
	// requests and ignored when writing.
	RemoteAddr string
}

// NewRequest returns a GET request for path with an empty header set.
func NewRequest(method, path string) *Request {
	// Sized for the usual field count so Set never regrows the buckets.
	return &Request{Method: method, Path: path, Proto: "HTTP/1.1", Header: make(Header, 8)}
}

// Response is an HTTP/1.1 response message. Trailer carries fields received
// (or to be sent) after a chunked body.
type Response struct {
	Proto   string
	Status  int
	Reason  string
	Header  Header
	Body    []byte
	Trailer Header
}

// NewResponse returns a response with the given status and an empty header
// set.
func NewResponse(status int) *Response {
	// Sized for the usual field count so Set never regrows the buckets.
	return &Response{Proto: "HTTP/1.1", Status: status, Reason: StatusText(status), Header: make(Header, 8)}
}

// StatusText returns the canonical reason phrase for the handful of status
// codes the protocol uses.
func StatusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 226:
		return "IM Used"
	case 304:
		return "Not Modified"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	case 501:
		return "Not Implemented"
	case 502:
		return "Bad Gateway"
	case 503:
		return "Service Unavailable"
	case 504:
		return "Gateway Timeout"
	default:
		return "Status " + strconv.Itoa(code)
	}
}

// httpTimeLayout is the RFC 1123 format HTTP/1.1 requires, always GMT.
const httpTimeLayout = "Mon, 02 Jan 2006 15:04:05 GMT"

// FormatHTTPDate renders a Unix time as an HTTP-date.
func FormatHTTPDate(unix int64) string {
	return time.Unix(unix, 0).UTC().Format(httpTimeLayout)
}

// ParseHTTPDate parses an HTTP-date into a Unix time.
func ParseHTTPDate(s string) (int64, error) {
	t, err := time.Parse(httpTimeLayout, strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("httpwire: bad HTTP date %q: %v", s, err)
	}
	return t.Unix(), nil
}

// WantsClose reports whether the header requests closing the connection
// after this message (Connection: close).
func (h Header) WantsClose() bool {
	return strings.EqualFold(strings.TrimSpace(h.Get("Connection")), "close")
}

// AcceptsChunkedTrailer reports whether a request advertised willingness to
// receive chunked transfer-coding with trailer fields (TE: chunked, §2.3;
// "trailers" per RFC 2616 is accepted too).
func (r *Request) AcceptsChunkedTrailer() bool {
	te := r.Header.Get("TE")
	for te != "" {
		var part string
		part, te, _ = strings.Cut(te, ",")
		if p := strings.TrimSpace(part); strings.EqualFold(p, "chunked") || strings.EqualFold(p, "trailers") {
			return true
		}
	}
	return false
}

var errNoTarget = errors.New("httpwire: request has neither absolute URI nor Host header")

// Target returns the host and origin-form path a proxy-bound request
// names: from the absolute URI "http://host/path" (an empty path is "/"),
// or else from the Host header and the request path, given a leading "/".
func (r *Request) Target() (host, path string, err error) {
	t := r.Path
	if rest, ok := strings.CutPrefix(t, "http://"); ok {
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			return rest[:i], rest[i:], nil
		}
		return rest, "/", nil
	}
	host = r.Header.Get("Host")
	if host == "" {
		return "", "", errNoTarget
	}
	if !strings.HasPrefix(t, "/") {
		t = "/" + t
	}
	return host, t, nil
}

// IfModifiedSince returns the request's If-Modified-Since time, if present
// and valid.
func (r *Request) IfModifiedSince() (int64, bool) {
	v := r.Header.Get("If-Modified-Since")
	if v == "" {
		return 0, false
	}
	t, err := ParseHTTPDate(v)
	if err != nil {
		return 0, false
	}
	return t, true
}

// LastModified returns the response's Last-Modified time, if present and
// valid.
func (r *Response) LastModified() (int64, bool) {
	v := r.Header.Get("Last-Modified")
	if v == "" {
		return 0, false
	}
	t, err := ParseHTTPDate(v)
	if err != nil {
		return 0, false
	}
	return t, true
}

package httpwire

import (
	"slices"
	"strconv"
	"strings"

	"piggyback/internal/core"
)

// Piggyback server invalidation (Krishnamurthy & Wills, WWW7 1998): each
// demand request a proxy sends an origin host echoes the token of its last
// exchange with that host, and the origin answers with the resources
// modified since, and a new token.
const (
	// FieldPiggySince is the request header carrying the proxy's token for
	// the origin host, NoToken when it holds none. The token is opaque to
	// the proxy, which echoes it verbatim.
	FieldPiggySince = "Piggy-Since"
	// FieldPChanges is the trailer field answering it:
	// "<token>;<item>,<item>,…", each item "<path> <lm> <size>": a resource
	// modified after the request's token, with its current Last-Modified
	// and size, its path front-coded against the previous item's as in a
	// path list (see hits.go). The token covers exactly the changes listed.
	// A list that ends in a comma is complete: it names every change after
	// the request's token, up to the instant the origin answered, and "<token>;,"
	// says nothing changed. A list without the closing comma was cut
	// short by the cap, or comes from an origin that does not mark its
	// lists; an older proxy parses both forms alike. A value that is a
	// token alone, with no semicolon, is a break: the origin could not
	// serve the request's token, and the new one starts afresh.
	FieldPChanges = "P-Changes"
	// NoToken is what a proxy holding no token for a host sends; an
	// origin always answers it with a break.
	NoToken = "-"
	// MaxChanges and MaxChangeBytes cap one change list. An origin stops
	// a list at either, and lists the rest on its next answer.
	MaxChanges     = 64
	MaxChangeBytes = maxPathsHeader
	// maxTokenBytes bounds a token: a longer one is not an origin's.
	maxTokenBytes = 64
)

// ChangeCost is the most one element adds to a change list: its item
// uncoded, and the comma before it. An origin that keeps the sum within
// MaxChangeBytes never writes a list longer than that, the closing comma of
// a complete list included.
func ChangeCost(el core.Element) int {
	return 1 + len(el.URL) + 1 + digits(el.LastModified) + 1 + digits(el.Size)
}

// ChangesValue renders token and els as a P-Changes list, closed by a comma
// when complete. It sorts els by path, so that front coding shares their
// prefixes. A break is the token alone and needs no rendering.
func ChangesValue(token string, els []core.Element, complete bool) string {
	slices.SortFunc(els, func(a, b core.Element) int { return strings.Compare(a.URL, b.URL) })
	var b strings.Builder
	b.Grow(len(token) + 2 + 32*len(els))
	b.WriteString(token)
	b.WriteByte(';')
	var num [20]byte
	prev := ""
	for i, el := range els {
		if i > 0 {
			b.WriteByte(',')
		}
		writeCoded(&b, frontCode(prev, el.URL), el.URL)
		b.WriteByte(' ')
		b.Write(strconv.AppendInt(num[:0], el.LastModified, 10))
		b.WriteByte(' ')
		b.Write(strconv.AppendInt(num[:0], el.Size, 10))
		prev = el.URL
	}
	if complete {
		b.WriteByte(',')
	}
	return b.String()
}

// AttachChanges sets value as the response's P-Changes trailer.
func AttachChanges(resp *Response, value string) {
	if resp.Trailer == nil {
		resp.Trailer = make(Header)
	}
	resp.Trailer.Set(FieldPChanges, value)
}

// ExtractChanges parses the response's P-Changes trailer into the new
// token and the elements it covers; brk reports a break, which covers
// none, and complete a list closed by a comma. ok is false when the field
// is absent or malformed — a token longer than 64 bytes or holding a space,
// comma, semicolon or control byte, a list longer than MaxChangeBytes or of
// more than MaxChanges items, or an item that does not decode to a
// server-relative path, a positive Last-Modified and a size — and then the
// whole value is ignored: the bytes come from the origin, and a list that
// is not the origin's must not move the token.
func ExtractChanges(resp *Response) (token string, els []core.Element, brk, complete, ok bool) {
	if resp.Trailer == nil {
		return "", nil, false, false, false
	}
	token, list, found := strings.Cut(resp.Trailer.Get(FieldPChanges), ";")
	token = strings.TrimSpace(token)
	if !validToken(token) || len(list) > MaxChangeBytes {
		return "", nil, false, false, false
	}
	if !found {
		return token, nil, true, false, true
	}
	list, complete = strings.CutSuffix(strings.TrimSpace(list), ",")
	prev := ""
	for more := list != ""; more; {
		if len(els) == MaxChanges {
			return "", nil, false, false, false
		}
		var item string
		item, list, more = strings.Cut(list, ",")
		coded, rest, _ := strings.Cut(strings.TrimSpace(item), " ")
		lmField, sizeField, _ := strings.Cut(rest, " ")
		path, okPath := decodeItem(prev, coded)
		lm, errLM := strconv.ParseInt(lmField, 10, 64)
		size, errSize := strconv.ParseInt(sizeField, 10, 64)
		if !okPath || path[0] != '/' || errLM != nil || lm <= 0 || errSize != nil {
			return "", nil, false, false, false
		}
		els = append(els, core.Element{URL: path, LastModified: lm, Size: size})
		prev = path
	}
	return token, els, false, complete, true
}

// validToken reports whether s can be a token: 1 to maxTokenBytes printable
// bytes, none of them a space, comma or semicolon.
func validToken(s string) bool {
	if s == "" || len(s) > maxTokenBytes {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= ' ' || c > '~' || c == ',' || c == ';' {
			return false
		}
	}
	return true
}

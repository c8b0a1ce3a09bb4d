package httpwire

import (
	"hash/crc32"
	"strconv"
	"strings"

	"piggyback/internal/core"
)

// Piggybacking header fields (§2.3). The proxy's GET or HEAD request
// carries "TE: chunked" and a Piggy-Filter header; a cooperating server
// appends a P-Volume field in the chunked trailer of the response.
const (
	// FieldPiggyFilter is the request header carrying the proxy filter.
	FieldPiggyFilter = "Piggy-Filter"
	// FieldPVolume is the trailer field carrying the piggyback message.
	FieldPVolume = "P-Volume"
	// FieldPValid is the trailer field answering a request's Piggy-Hits
	// and Piggy-Validate lists: "<digest>;<i> <lm> <size>,…", the CRC-32
	// of the request's two list values in hex, then the current
	// Last-Modified and size of each listed resource the server holds, by
	// its index i in the decoded Piggy-Hits list followed by the decoded
	// Piggy-Validate list — once, at its first index, in index order. A
	// current server answers only the Piggy-Hits paths; the list older
	// proxies send in Piggy-Validate still counts in the digest and the
	// indexes, so their answers still bind.
	// Servers that answered in P-Volume's element form used the name
	// P-Valid; the new name keeps either form from reaching a proxy that
	// reads only the other.
	FieldPValid = "P-Valid2"
)

// SetFilter attaches a proxy filter to the request, along with the TE
// header announcing that a chunked trailer is acceptable.
func SetFilter(req *Request, f core.Filter) {
	if req.Header == nil {
		req.Header = make(Header)
	}
	req.Header.Set("TE", "chunked")
	req.Header.Set(FieldPiggyFilter, f.Header())
}

// GetFilter extracts the proxy filter from a request. ok is false when the
// request carries no Piggy-Filter field; a malformed filter also yields
// ok=false (a server must not fail a regular request over a bad hint).
func GetFilter(req *Request) (core.Filter, bool) {
	v := req.Header.Get(FieldPiggyFilter)
	if v == "" {
		return core.Filter{}, false
	}
	f, err := core.ParseFilter(v)
	if err != nil {
		return core.Filter{}, false
	}
	return f, true
}

// AttachPiggyback adds the piggyback message to the response's trailer,
// switching the response to chunked framing when written.
func AttachPiggyback(resp *Response, m core.Message) {
	if resp.Trailer == nil {
		resp.Trailer = make(Header)
	}
	resp.Trailer.Set(FieldPVolume, m.Encode())
}

// ExtractPiggyback parses the piggyback message from a response trailer.
// ok is false when no P-Volume field is present or it is malformed.
func ExtractPiggyback(resp *Response) (core.Message, bool) {
	if resp.Trailer == nil {
		return core.Message{}, false
	}
	v := resp.Trailer.Get(FieldPVolume)
	if v == "" {
		return core.Message{}, false
	}
	m, err := core.ParseMessage(v)
	if err != nil {
		return core.Message{}, false
	}
	return m, true
}

// Answer is one entry of a P-Valid2 answer: the current Last-Modified and
// size of the resource at index I of the request's lists — its decoded
// Piggy-Hits paths followed by its decoded Piggy-Validate paths.
type Answer struct {
	I            int
	LastModified int64
	Size         int64
}

// listDigest returns the CRC-32 of req's Piggy-Hits and Piggy-Validate
// values, the tag that binds an answer to the lists it indexes.
func listDigest(req *Request) uint32 {
	return crc32.ChecksumIEEE([]byte(req.Header.Get(FieldPiggyHits) + "\n" + req.Header.Get(FieldPiggyValidate)))
}

// AttachAnswers adds the answer to req's lists to the response's trailer,
// tagged with req's listDigest; no answers attach nothing.
func AttachAnswers(resp *Response, req *Request, answers []Answer) {
	if len(answers) == 0 {
		return
	}
	// Up to 8 hex digits and a semicolon, then about 20 bytes an entry.
	b := strconv.AppendUint(make([]byte, 0, 9+24*len(answers)), uint64(listDigest(req)), 16)
	b = append(b, ';')
	for i, a := range answers {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(a.I), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, a.LastModified, 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, a.Size, 10)
	}
	if resp.Trailer == nil {
		resp.Trailer = make(Header)
	}
	resp.Trailer.Set(FieldPValid, string(b))
}

// ExtractAnswers parses the answer to req's lists, which held n paths, from
// the response's trailer. It returns nil when no P-Valid2 field is present,
// when it is malformed, when its digest is not req's — the lists it indexes
// are not the ones req sent — or when an index is not below n or not above
// the index before it.
func ExtractAnswers(resp *Response, req *Request, n int) []Answer {
	if resp.Trailer == nil {
		return nil
	}
	tag, list, ok := strings.Cut(resp.Trailer.Get(FieldPValid), ";")
	if !ok {
		return nil
	}
	if d, err := strconv.ParseUint(strings.TrimSpace(tag), 16, 32); err != nil || uint32(d) != listDigest(req) {
		return nil
	}
	out := make([]Answer, 0, strings.Count(list, ",")+1)
	for list != "" {
		var entry string
		entry, list, _ = strings.Cut(list, ",")
		idx, rest, _ := strings.Cut(strings.TrimSpace(entry), " ")
		lmField, sizeField, _ := strings.Cut(rest, " ")
		i, err := strconv.Atoi(idx)
		if err != nil || i < 0 || i >= n || len(out) > 0 && i <= out[len(out)-1].I {
			return nil
		}
		lm, err := strconv.ParseInt(lmField, 10, 64)
		if err != nil {
			return nil
		}
		size, err := strconv.ParseInt(sizeField, 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, Answer{I: i, LastModified: lm, Size: size})
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

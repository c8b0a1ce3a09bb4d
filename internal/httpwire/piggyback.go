package httpwire

import (
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
	// and Piggy-Validate lists: the current version of each listed
	// resource, in the P-Volume element encoding with no volume identifier.
	FieldPValid = "P-Valid"
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

// AttachValidations adds the answer to a hit report and a validation list —
// the current size and Last-Modified of each listed resource — to the
// response's trailer; no elements attach nothing.
func AttachValidations(resp *Response, els []core.Element) {
	if len(els) == 0 {
		return
	}
	if resp.Trailer == nil {
		resp.Trailer = make(Header)
	}
	resp.Trailer.Set(FieldPValid, core.EncodeElements(els))
}

// ExtractValidations parses the answer to a hit report and a validation
// list from a response trailer. It returns nil when no P-Valid field is present or it is
// malformed.
func ExtractValidations(resp *Response) []core.Element {
	if resp.Trailer == nil {
		return nil
	}
	els, err := core.ParseElements(resp.Trailer.Get(FieldPValid))
	if err != nil {
		return nil
	}
	return els
}

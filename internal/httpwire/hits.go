package httpwire

import "strings"

// Proxy-to-server hit reporting (§5 future work): "we are studying ways
// for the proxy to piggyback information to the server about accesses that
// are satisfied at the cache." Without it, a server's volumes only see
// cache misses and validations; hot cached resources fade from the
// popularity order even while clients hammer them at the proxy.
//
// The proxy accumulates the URLs it served from cache since its last
// upstream request to a server and attaches them as a Piggy-Hits request
// header; a cooperating server (or volume center) feeds them back into its
// volume maintenance.

// FieldPiggyHits is the request header carrying cache-satisfied URLs.
const FieldPiggyHits = "Piggy-Hits"

// maxHitsHeader bounds the encoded header size.
const maxHitsHeader = 2048

// SetHits attaches cache-hit URLs to the request, dropping entries that
// would overflow the header budget (most recent first, so the freshest
// hits survive). A URL GetHits would not return unchanged — empty, with a
// comma, space or tab, or with other whitespace at either end — is
// skipped.
func SetHits(req *Request, urls []string) {
	if len(urls) == 0 {
		return
	}
	if req.Header == nil {
		req.Header = make(Header)
	}
	var b strings.Builder
	for i := len(urls) - 1; i >= 0; i-- {
		u := urls[i]
		if u == "" || strings.ContainsAny(u, ", \t") || strings.TrimSpace(u) != u {
			continue
		}
		if b.Len()+len(u)+1 > maxHitsHeader {
			break
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(u)
	}
	if b.Len() > 0 {
		req.Header.Set(FieldPiggyHits, b.String())
	}
}

// GetHits extracts the cache-hit URLs from a request.
func GetHits(req *Request) []string {
	v := req.Header.Get(FieldPiggyHits)
	if v == "" {
		return nil
	}
	parts := strings.Split(v, ",")
	out := parts[:0]
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

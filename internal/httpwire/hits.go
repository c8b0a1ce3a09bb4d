package httpwire

import "strings"

// Proxy-to-server path lists. Two request headers carry the server-relative
// paths of resources the proxy holds, in one encoding:
//
//   - Piggy-Hits (§5 future work): "we are studying ways for the proxy to
//     piggyback information to the server about accesses that are satisfied
//     at the cache." Without it, a server's volumes only see cache misses and
//     validations; hot cached resources fade from the popularity order even
//     while clients hammer them at the proxy. The proxy attaches the URLs it
//     served from cache since its last upstream request to a server; a
//     cooperating server (or volume center) feeds them back into its volume
//     maintenance.
//   - Piggy-Validate (piggyback cache validation, Krishnamurthy & Wills,
//     USITS '97): cached resources whose freshness runs out soon. A
//     cooperating server answers each one it holds with its current version,
//     as it answers Piggy-Hits, but does not count it as an access.
const (
	// FieldPiggyHits is the request header carrying cache-satisfied URLs.
	FieldPiggyHits = "Piggy-Hits"
	// FieldPiggyValidate is the request header carrying cached URLs about
	// to expire.
	FieldPiggyValidate = "Piggy-Validate"
)

// maxPathsHeader bounds the encoded size of one path-list header.
const maxPathsHeader = 2048

// SetPaths attaches paths to the request as the comma-separated value of
// field, last path first: the caller puts the ones it most wants sent at
// the end (the freshest hits, the soonest expiries), and those survive when
// the header budget drops the rest. A path GetPaths would not return
// unchanged — empty, with a comma, space or tab, or with other whitespace at
// either end — is skipped.
func SetPaths(req *Request, field string, paths []string) {
	if len(paths) == 0 {
		return
	}
	if req.Header == nil {
		req.Header = make(Header)
	}
	var b strings.Builder
	for i := len(paths) - 1; i >= 0; i-- {
		u := paths[i]
		if u == "" || strings.ContainsAny(u, ", \t") || strings.TrimSpace(u) != u {
			continue
		}
		if b.Len()+len(u)+1 > maxPathsHeader {
			break
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(u)
	}
	if b.Len() > 0 {
		req.Header.Set(field, b.String())
	}
}

// GetPaths extracts the path list carried in field.
func GetPaths(req *Request, field string) []string {
	v := req.Header.Get(field)
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

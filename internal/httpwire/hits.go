package httpwire

import (
	"strconv"
	"strings"
)

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
//     USITS '97): cached resources whose freshness runs out soon, sent by
//     proxies that predate the change-list watermark (changes.go). A
//     current server leaves it unanswered; a volume center strips it.
//
// The list is front-coded: items are comma-separated, and each is either a
// plain path or "<k>|<suffix>", the first k bytes (k ≥ 2) of the previous
// path in the list followed by suffix. One page's images share all but a few
// bytes of their paths, and a repeated path costs its k and a bar. A path
// holding "|" is never listed ("|" is not legal raw in a URL path), so an
// item with a bar is always coded, and a list of plain paths — what a proxy
// without front coding sends — decodes as it did.
const (
	// FieldPiggyHits is the request header carrying cache-satisfied URLs.
	FieldPiggyHits = "Piggy-Hits"
	// FieldPiggyValidate is the request header in which older proxies
	// list cached URLs about to expire.
	FieldPiggyValidate = "Piggy-Validate"
)

// maxPathsHeader bounds the encoded size of one path-list header.
const maxPathsHeader = 2048

// Listable reports whether a path can ride in a list: GetPaths returns it
// unchanged. Empty paths, paths holding a comma, bar, space or tab, paths
// with other whitespace at either end, and paths too long to fit in a list
// on their own cannot.
func Listable(p string) bool {
	for i := 0; i < len(p); i++ {
		switch p[i] {
		case ',', '|', ' ', '\t':
			return false
		}
	}
	return p != "" && len(p) < maxPathsHeader && strings.TrimSpace(p) == p
}

// SetPaths attaches paths to the request as the front-coded value of field,
// last path first, and returns the paths it wrote, in wire order: the order
// GetPaths returns them in. The caller puts the ones it most wants sent at
// the end (the freshest hits), and those survive when the header budget
// drops the rest. A path that is not listable is skipped.
func SetPaths(req *Request, field string, paths []string) []string {
	if len(paths) == 0 {
		return nil
	}
	var b strings.Builder
	wrote := make([]string, 0, len(paths))
	prev := ""
	for i := len(paths) - 1; i >= 0; i-- {
		u := paths[i]
		if !Listable(u) {
			continue
		}
		k := frontCode(prev, u)
		if b.Len()+codedLen(k, u)+1 > maxPathsHeader {
			break
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		writeCoded(&b, k, u)
		wrote = append(wrote, u)
		prev = u
	}
	if len(wrote) == 0 {
		return nil
	}
	if req.Header == nil {
		req.Header = make(Header)
	}
	req.Header.Set(field, b.String())
	return wrote
}

// GetPaths decodes the path list carried in field. An item whose path is
// not listable, or whose k is below 2 or beyond the previous decoded path's
// length, is dropped. A value longer than SetPaths ever writes is not a
// list and yields nil: a coded item can stand for up to its previous path's
// length in a few bytes, and the bound keeps what a list decodes to small.
func GetPaths(req *Request, field string) []string {
	v := req.Header.Get(field)
	if v == "" || len(v) > maxPathsHeader {
		return nil
	}
	out := make([]string, 0, strings.Count(v, ",")+1)
	prev := ""
	for v != "" {
		var item string
		item, v, _ = strings.Cut(v, ",")
		if p, ok := decodeItem(prev, strings.TrimSpace(item)); ok {
			out = append(out, p)
			prev = p
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// frontCode returns the k u is written with after prev in a front-coded
// list: the length of their common prefix when "<k>|" is shorter than the
// k bytes it stands for (k ≥ 3), else 0, and u is written whole.
func frontCode(prev, u string) int {
	if k := commonPrefix(prev, u); k >= 3 {
		return k
	}
	return 0
}

// codedLen is the length of u's item written with k.
func codedLen(k int, u string) int {
	if k == 0 {
		return len(u)
	}
	return digits(int64(k)) + 1 + len(u) - k
}

// writeCoded writes u's item written with k.
func writeCoded(b *strings.Builder, k int, u string) {
	if k == 0 {
		b.WriteString(u)
		return
	}
	b.WriteString(strconv.Itoa(k))
	b.WriteByte('|')
	b.WriteString(u[k:])
}

// decodeItem decodes one front-coded item after the previous decoded path.
// It reports false for an item whose path is not listable, or whose k is
// below 2 or beyond prev's length.
func decodeItem(prev, item string) (string, bool) {
	if bar := strings.IndexByte(item, '|'); bar >= 0 {
		k, err := strconv.Atoi(item[:bar])
		if err != nil || k < 2 || k > len(prev) {
			return "", false
		}
		item = prev[:k] + item[bar+1:]
	}
	return item, Listable(item)
}

// digits returns the length of n's decimal rendering.
func digits(n int64) int {
	d := 1
	if n < 0 {
		d, n = 2, -n
	}
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

// commonPrefix returns the length of the longest common prefix of a and b.
func commonPrefix(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

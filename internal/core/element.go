// Package core implements the paper's primary contribution: server volumes,
// proxy filters, and piggyback message generation (Cohen, Krishnamurthy,
// Rexford, SIGCOMM 1998).
//
// A server groups related resources into volumes — either statically by
// directory prefix (DirVolumes, §3.2) or by measured pairwise access
// probabilities (ProbVolumes, §3.3) — and, on each response, piggybacks a
// small list of volume elements (URL, size, Last-Modified) likely to be
// requested soon by the same proxy. The proxy tailors that list with a
// Filter carried on the request, and paces it with a recently-piggybacked-
// volume (RPV) list so the server needs no per-proxy state.
package core

import (
	"fmt"
	"strconv"
	"strings"
)

// VolumeID identifies a volume within one server. The wire format is a
// 2-byte identifier allowing up to 32767 volumes per server (§2.3).
type VolumeID uint16

// MaxVolumeID is the largest representable volume identifier.
const MaxVolumeID VolumeID = 32767

// Element is one piggyback element: the identifier, size, and Last-Modified
// time of a resource in the same volume as a requested resource (§2.1).
type Element struct {
	// URL is the resource identifier, with the redundant server-name
	// portion omitted (§2.3).
	URL string
	// Size is the resource size in bytes.
	Size int64
	// LastModified is the resource's Last-Modified time in Unix seconds.
	LastModified int64
}

// WireBytes is the paper's estimate of the wire cost of one piggyback
// element: a ~50-byte URL plus 8-byte Last-Modified and 8-byte size (§2.3).
func (e Element) WireBytes() int { return len(e.URL) + 16 }

// Message is a piggyback message: a volume identifier followed by a
// sequence of piggyback elements (§2.3).
type Message struct {
	Volume   VolumeID
	Elements []Element
	// enc holds the pre-serialized wire segment of each element, parallel
	// to Elements — rendered once per volume update by the volume engine
	// (mtfNode caches it) rather than once per response. Encode memcpys
	// these instead of re-formatting; nil (engines without segment
	// support, parsed messages) falls back to formatting.
	enc []string
}

// Empty reports whether the message carries no elements.
func (m Message) Empty() bool { return len(m.Elements) == 0 }

// WireBytes returns the encoded size of the message: a 2-byte volume
// identifier plus the per-element costs (§2.3).
func (m Message) WireBytes() int {
	n := 2
	for _, e := range m.Elements {
		n += e.WireBytes()
	}
	return n
}

// elementSegment renders one element's wire segment, leading space
// included: " url last-modified size".
func elementSegment(e Element) string {
	b := make([]byte, 0, len(e.URL)+24)
	b = append(b, ' ')
	b = append(b, e.URL...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, e.LastModified, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, e.Size, 10)
	return string(b)
}

// Encode renders the message as the P-Volume trailer field value:
//
//	P-Volume: 17; /a/b.html 866268400 4096, /a/c.gif 866268401 512
//
// Each element is "url last-modified size"; elements are comma-separated.
// When the volume engine supplied pre-serialized segments, encoding is a
// size computation plus memcpys — the hot path never re-formats integers.
func (m Message) Encode() string {
	var b strings.Builder
	if len(m.enc) == len(m.Elements) && len(m.Elements) > 0 {
		n := 8
		for _, s := range m.enc {
			n += len(s) + 1
		}
		b.Grow(n)
		b.WriteString(strconv.Itoa(int(m.Volume)))
		b.WriteByte(';')
		for i, s := range m.enc {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(s)
		}
		return b.String()
	}
	b.WriteString(strconv.Itoa(int(m.Volume)))
	b.WriteString(";")
	for i, e := range m.Elements {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(elementSegment(e))
	}
	return b.String()
}

// RefreshElements overwrites each element's attributes with the
// authoritative values from get (the server "has considerable knowledge
// about each resource", §2.1), dropping elements get rejects — and keeps
// the pre-serialized segments coherent: a segment is re-rendered only when
// the attributes actually changed, so an unmodified resource (the common
// case) costs a comparison, not a format.
func (m *Message) RefreshElements(get func(url string) (size, lastModified int64, ok bool)) {
	out := m.Elements[:0]
	hasEnc := len(m.enc) == len(m.Elements)
	var enc []string
	if hasEnc {
		enc = m.enc[:0]
	}
	for i, e := range m.Elements {
		size, lm, ok := get(e.URL)
		if !ok {
			continue
		}
		switch {
		case !hasEnc:
		case size == e.Size && lm == e.LastModified:
			enc = append(enc, m.enc[i])
		default:
			enc = append(enc, elementSegment(Element{URL: e.URL, Size: size, LastModified: lm}))
		}
		e.Size, e.LastModified = size, lm
		out = append(out, e)
	}
	m.Elements = out
	m.enc = enc
}

// ParseMessage parses a P-Volume field value produced by Encode.
func ParseMessage(s string) (Message, error) {
	var m Message
	vol, rest, found := strings.Cut(s, ";")
	if !found {
		return m, fmt.Errorf("core: malformed P-Volume value %q: missing volume id", s)
	}
	id, err := strconv.Atoi(strings.TrimSpace(vol))
	if err != nil || id < 0 || id > int(MaxVolumeID) {
		return m, fmt.Errorf("core: bad volume id %q", vol)
	}
	m.Volume = VolumeID(id)
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return m, nil
	}
	for _, part := range strings.Split(rest, ",") {
		fields := strings.Fields(part)
		if len(fields) != 3 {
			return m, fmt.Errorf("core: bad piggyback element %q", part)
		}
		lm, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return m, fmt.Errorf("core: bad Last-Modified in element %q", part)
		}
		size, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return m, fmt.Errorf("core: bad size in element %q", part)
		}
		m.Elements = append(m.Elements, Element{URL: fields[0], LastModified: lm, Size: size})
	}
	return m, nil
}

// Access describes one observed request, as fed to a volume provider.
type Access struct {
	// Source identifies the requesting proxy or client.
	Source string
	// Time is the request time in Unix seconds.
	Time int64
	// Element carries the requested resource's identifier and current
	// attributes (size, Last-Modified) as known at the server.
	Element Element
}

// Provider is a volume engine: it observes the server's request stream and
// generates piggyback messages customized by a proxy filter.
//
// Piggyback returns the message for a request for url at the given time
// under filter f, and whether a piggyback should be attached at all (false
// when the filter disables it, the resource's volume is in the filter's RPV
// list, or the volume has nothing to offer).
type Provider interface {
	Observe(a Access)
	Piggyback(url string, now int64, f Filter) (Message, bool)
}

// VolumeOf is implemented by providers that can name the volume a resource
// currently belongs to. The proxy never needs this mapping (§2.2: it learns
// volume ids only from piggyback replies); it is exported for the
// evaluation harness and for volume-center administration.
type VolumeOf interface {
	VolumeOf(url string) (VolumeID, bool)
}

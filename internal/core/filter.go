package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Filter is a proxy-generated filter that customizes piggyback messages
// (§2.2). It is carried on the request in the Piggy-Filter header:
//
//	Piggy-Filter: maxpiggy=10; rpv="3,4"; minaccess=50; maxsize=65536;
//	              pt=0.25; notypes="image"
//
// The zero Filter requests piggybacking with no restrictions.
type Filter struct {
	// Disabled suppresses piggybacking entirely for this request — the
	// proxy's frequency-control enable/disable bit (§2.2).
	Disabled bool
	// MaxPiggy caps the number of piggybacked elements; zero means no
	// explicit cap (the server may still impose its own).
	MaxPiggy int
	// RPV lists recently piggybacked volumes: the server omits the
	// piggyback when the requested resource's volume is listed (§2.2).
	RPV []VolumeID
	// MinAccess omits resources accessed fewer than this many times —
	// the access filter of §3.2.2 (e.g. "filter of 100").
	MinAccess int
	// MaxSize omits resources larger than this many bytes; zero means
	// unlimited (§2.2: avoid fetching and storing large resources).
	MaxSize int64
	// ProbThreshold requires piggybacked elements to co-occur with the
	// requested resource with probability >= this threshold (§2.3);
	// meaningful with probability-based volumes.
	ProbThreshold float64
	// NoTypes lists content-type prefixes to exclude, e.g. "image" for a
	// proxy serving low-bandwidth wireless clients (§2.2).
	NoTypes []string
}

// AllowsType reports whether the filter admits a resource of the given
// content type.
func (f Filter) AllowsType(contentType string) bool {
	for _, t := range f.NoTypes {
		if strings.HasPrefix(contentType, t) {
			return false
		}
	}
	return true
}

// HasRPV reports whether the volume id appears in the filter's RPV list.
func (f Filter) HasRPV(id VolumeID) bool {
	for _, v := range f.RPV {
		if v == id {
			return true
		}
	}
	return false
}

// Admits reports whether an element passes the filter's per-element
// constraints (size and content-type); access-count and probability
// constraints are applied by the volume provider, which holds that state.
func (f Filter) Admits(e Element, contentType string) bool {
	if f.MaxSize > 0 && e.Size > f.MaxSize {
		return false
	}
	return f.AllowsType(contentType)
}

// Cap returns the effective element cap given the server-side limit:
// the smaller of the two non-zero values.
func (f Filter) Cap(serverMax int) int {
	switch {
	case f.MaxPiggy <= 0:
		return serverMax
	case serverMax <= 0:
		return f.MaxPiggy
	case f.MaxPiggy < serverMax:
		return f.MaxPiggy
	default:
		return serverMax
	}
}

// Header renders the filter as a Piggy-Filter field value. A disabled
// filter renders as "off". Zero-valued attributes are omitted.
func (f Filter) Header() string {
	if f.Disabled {
		return "off"
	}
	var parts []string
	if f.MaxPiggy > 0 {
		parts = append(parts, "maxpiggy="+strconv.Itoa(f.MaxPiggy))
	}
	if len(f.RPV) > 0 {
		ids := make([]string, len(f.RPV))
		sorted := append([]VolumeID(nil), f.RPV...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i, v := range sorted {
			ids[i] = strconv.Itoa(int(v))
		}
		parts = append(parts, `rpv="`+strings.Join(ids, ",")+`"`)
	}
	if f.MinAccess > 0 {
		parts = append(parts, "minaccess="+strconv.Itoa(f.MinAccess))
	}
	if f.MaxSize > 0 {
		parts = append(parts, "maxsize="+strconv.FormatInt(f.MaxSize, 10))
	}
	if f.ProbThreshold > 0 {
		parts = append(parts, "pt="+strconv.FormatFloat(f.ProbThreshold, 'g', -1, 64))
	}
	if len(f.NoTypes) > 0 {
		parts = append(parts, `notypes="`+strings.Join(f.NoTypes, ",")+`"`)
	}
	if len(parts) == 0 {
		return "on"
	}
	return strings.Join(parts, "; ")
}

// ParseFilter parses a Piggy-Filter field value produced by Header.
// The values "on" and "" parse as the zero filter; "off" as disabled.
func ParseFilter(s string) (Filter, error) {
	var f Filter
	s = strings.TrimSpace(s)
	switch s {
	case "", "on":
		return f, nil
	case "off":
		f.Disabled = true
		return f, nil
	}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, found := strings.Cut(part, "=")
		if !found {
			return f, fmt.Errorf("core: bad filter attribute %q", part)
		}
		key = strings.TrimSpace(strings.ToLower(key))
		val = strings.Trim(strings.TrimSpace(val), `"`)
		switch key {
		case "maxpiggy":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return f, fmt.Errorf("core: bad maxpiggy %q", val)
			}
			f.MaxPiggy = n
		case "rpv":
			if val == "" {
				continue
			}
			for _, idStr := range strings.Split(val, ",") {
				id, err := strconv.Atoi(strings.TrimSpace(idStr))
				if err != nil || id < 0 || id > int(MaxVolumeID) {
					return f, fmt.Errorf("core: bad rpv id %q", idStr)
				}
				f.RPV = append(f.RPV, VolumeID(id))
			}
		case "minaccess":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return f, fmt.Errorf("core: bad minaccess %q", val)
			}
			f.MinAccess = n
		case "maxsize":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return f, fmt.Errorf("core: bad maxsize %q", val)
			}
			f.MaxSize = n
		case "pt":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || !(p >= 0 && p <= 1) { // NaN too
				return f, fmt.Errorf("core: bad pt %q", val)
			}
			f.ProbThreshold = p
		case "notypes":
			if val == "" {
				continue
			}
			for _, t := range strings.Split(val, ",") {
				f.NoTypes = append(f.NoTypes, strings.TrimSpace(t))
			}
		default:
			// Unknown attributes are ignored for forward
			// compatibility; the paper's future work anticipates a
			// richer filter language (§5).
		}
	}
	return f, nil
}

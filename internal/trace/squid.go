package trace

import (
	"fmt"
	"strconv"
	"strings"
)

// Squid native access.log support. Squid is the proxy whose logs (and
// descendants of whose logs) are the most common real-world source of
// client traces like the paper's AT&T/Digital logs ([2] cites Squid
// directly). The native format is:
//
//	timestamp elapsed client action/code size method URL ident hierarchy/from type
//
// e.g.
//
//	899637753.123 87 10.1.2.3 TCP_MISS/200 4316 GET http://www.foo.com/x.html - DIRECT/10.9.8.7 text/html

// ParseSquid parses one Squid native access.log line. The URL's scheme is
// stripped so records carry host-qualified URLs like the client logs the
// analyzers expect.
func ParseSquid(line string) (Record, error) {
	var r Record
	fields := strings.Fields(line)
	if len(fields) < 7 {
		return r, fmt.Errorf("%w: squid line needs >= 7 fields: %q", ErrBadLine, line)
	}
	tsFloat, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return r, fmt.Errorf("%w: bad squid timestamp %q", ErrBadLine, fields[0])
	}
	actionCode := fields[3]
	slash := strings.LastIndexByte(actionCode, '/')
	if slash < 0 {
		return r, fmt.Errorf("%w: bad squid action/code %q", ErrBadLine, actionCode)
	}
	status, err := strconv.Atoi(actionCode[slash+1:])
	if err != nil {
		return r, fmt.Errorf("%w: bad squid status in %q", ErrBadLine, actionCode)
	}
	size, err := strconv.ParseInt(fields[4], 10, 64)
	if err != nil {
		return r, fmt.Errorf("%w: bad squid size %q", ErrBadLine, fields[4])
	}
	url := fields[6]
	url = strings.TrimPrefix(url, "http://")
	url = strings.TrimPrefix(url, "https://")

	r = Record{
		Time:   int64(tsFloat),
		Client: fields[2],
		Method: fields[5],
		URL:    url,
		Status: status,
		Size:   size,
	}
	return r, nil
}

// FormatSquid renders a record as a Squid native access.log line. The
// cache action is synthesized from the status (TCP_MISS for 200s,
// TCP_REFRESH_HIT for 304s).
func FormatSquid(r Record) string {
	action := "TCP_MISS"
	if r.Status == 304 {
		action = "TCP_REFRESH_HIT"
	}
	method := r.Method
	if method == "" {
		method = "GET"
	}
	url := r.URL
	if strings.HasPrefix(url, "/") {
		url = "localhost" + url
	}
	return fmt.Sprintf("%d.000 10 %s %s/%d %d %s http://%s - DIRECT/- -",
		r.Time, r.Client, action, r.Status, r.Size, method, url)
}

// ParseAny parses a line in either supported dialect.
func ParseAny(line string) (Record, error) {
	if rec, err := ParseCLF(line); err == nil {
		return rec, nil
	}
	rec, err := ParseSquid(line)
	if err != nil {
		return Record{}, fmt.Errorf("%w: neither CLF nor squid: %q", ErrBadLine, line)
	}
	return rec, nil
}

package main

import (
	"bytes"
	"strconv"

	"piggyback/internal/httpwire"
)

// verdict is the oracle's ruling on one response.
type verdict int

const (
	// fresh: the body is the origin's version at the request instant.
	fresh verdict = iota
	// stale: the origin had a newer version, but it appeared within Δ of
	// the request — the staleness the proxy's contract allows.
	stale
	// violation: the response is wrong — transport error, bad status,
	// wrong length or stamp, a version the origin never had, or a body
	// older than Δ allows. A failed operation.
	violation
)

// judge rules on a body carrying version lm of r, requested when the
// virtual clock read sentAt, under freshness interval delta.
//
// A copy of version v was fetched or freshened at some time before v's
// successor appeared (world.advance orders changes before the clock), and is
// served for at most delta after that. So a body may be stale only while
// sentAt < successor + delta.
func judge(r *resource, lm, sentAt, delta int64) verdict {
	if r.versionAt(lm) != lm {
		return violation // not a version this resource ever had
	}
	if lm >= r.versionAt(sentAt) {
		return fresh
	}
	if successor := lm + r.interval; sentAt >= successor+delta {
		return violation
	}
	return stale
}

// checkBody verifies a response against the resource it was requested for,
// without consulting the clock: status 200, the exact body length, and a
// leading "<!-- version N -->" stamp equal to the Last-Modified header. It
// returns the version. scratch is reused between calls.
func checkBody(r *resource, resp *httpwire.Response, scratch *[]byte) (lm int64, ok bool) {
	if resp.Status != 200 || len(resp.Body) != r.bodyLen {
		return 0, false
	}
	lm, ok = resp.LastModified()
	if !ok {
		return 0, false
	}
	want := append((*scratch)[:0], "<!-- version "...)
	want = strconv.AppendInt(want, lm, 10)
	want = append(want, " -->"...)
	*scratch = want
	if len(want) > len(resp.Body) {
		want = want[:len(resp.Body)] // bodies shorter than the stamp carry its head
	}
	return lm, bytes.HasPrefix(resp.Body, want)
}

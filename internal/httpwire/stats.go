package httpwire

import "piggyback/internal/obs"

// StatsResponse serializes a live telemetry snapshot of reg as the
// GET /.piggy/stats payload: a 200 application/json response. The server,
// proxy, and volume center all answer the reserved origin-form path
// obs.StatsPath with this, so an operator with curl or netcat can watch
// counters move under live traffic.
func StatsResponse(reg *obs.Registry) *Response {
	resp := NewResponse(200)
	resp.Body = reg.Snapshot().JSON()
	resp.Header.Set("Content-Type", "application/json")
	resp.Header.Set("Cache-Control", "no-store")
	return resp
}

// IsStatsRequest reports whether req addresses the reserved telemetry
// endpoint: a GET for the origin-form stats path. Handlers check this
// before any routing (the path intentionally has no Host, so a proxy
// answers for itself rather than forwarding).
func IsStatsRequest(req *Request) bool {
	return req.Method == "GET" && req.Path == obs.StatsPath
}

// Package obs provides lock-free runtime telemetry for the live
// server/proxy/center stack: atomic counters and fixed-bucket histograms
// with snapshot, merge, and percentile support. Every hot-path operation
// (Counter.Add, Histogram.Observe) is a handful of atomic instructions —
// no locks, no allocation — so instrumentation stays cheap enough to leave
// on under full load.
//
// A Registry names a set of counters and histograms and produces immutable
// Snapshots that serialize to JSON; the reserved path StatsPath exposes a
// live snapshot over the wire protocol, which the load generator reads
// before and after a run to attribute cache hits, piggyback traffic, and
// upstream activity to the measured window (Snapshot.Sub).
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// StatsPath is the reserved origin-form request path on which the live
// handlers (server, proxy, volume center) serve a JSON telemetry snapshot.
const StatsPath = "/.piggy/stats"

// Counter is a lock-free monotonic (or gauge-style) counter. The zero
// value is ready to use.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Histogram is a fixed-bucket histogram over int64 observations (latencies
// in microseconds, sizes in bytes). Bucket i counts observations v with
// bounds[i-1] < v <= bounds[i]; a final overflow bucket catches the rest.
// Count, sum, min, and max are tracked exactly; quantiles are estimated by
// linear interpolation within the containing bucket. All operations are
// lock-free.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
}

// NewHistogram returns a histogram over the given strictly-increasing
// inclusive upper bounds. The bounds slice is copied.
func NewHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not increasing at %d: %v", i, bounds))
		}
	}
	h := &Histogram{
		bounds:  append([]int64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// LatencyBuckets returns exponential bounds suited to request latencies in
// microseconds: 25µs up to ~50s, doubling each bucket.
func LatencyBuckets() []int64 {
	var b []int64
	for v := int64(25); v <= 50_000_000; v *= 2 {
		b = append(b, v)
	}
	return b
}

// SizeBuckets returns exponential bounds suited to message sizes in bytes:
// 64 B up to 16 MiB, doubling each bucket.
func SizeBuckets() []int64 {
	var b []int64
	for v := int64(64); v <= 16<<20; v *= 2 {
		b = append(b, v)
	}
	return b
}

// BatchBuckets returns bounds suited to small coalesced-batch sizes
// (messages per syscall): 1 up to 64, doubling each bucket.
func BatchBuckets() []int64 {
	var b []int64
	for v := int64(1); v <= 64; v *= 2 {
		b = append(b, v)
	}
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Snapshot captures the histogram's current state. Concurrent Observe
// calls may land partially in the snapshot (a bucket increment without its
// count increment or vice versa); totals are consistent to within the
// observations in flight at the instant of the snapshot.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: make([]int64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	if min := h.min.Load(); min != math.MaxInt64 {
		s.Min = min
	}
	if max := h.max.Load(); max != math.MinInt64 {
		s.Max = max
	}
	return s
}

// HistSnapshot is an immutable histogram state.
type HistSnapshot struct {
	// Bounds are the inclusive upper bounds; Counts has one extra final
	// element for the overflow bucket.
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	Min    int64   `json:"min"`
	Max    int64   `json:"max"`
}

// Mean returns the average observation, or NaN when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	return float64(s.Sum) / float64(s.Count)
}

// lowerEdge returns bucket i's exclusive lower bound (0 for the first).
func (s HistSnapshot) lowerEdge(i int) int64 {
	if i == 0 {
		return 0
	}
	return s.Bounds[i-1]
}

// upperEdge returns bucket i's inclusive upper bound (Max for overflow).
func (s HistSnapshot) upperEdge(i int) int64 {
	if i < len(s.Bounds) {
		return s.Bounds[i]
	}
	return s.Max
}

// Quantile estimates the q-quantile (0 <= q <= 1) by locating the bucket
// containing the target rank and interpolating linearly inside it, clamped
// to the exact observed [Min, Max]. Empty snapshots yield NaN.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return float64(s.Min)
	}
	if q >= 1 {
		return float64(s.Max)
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo, hi := float64(s.lowerEdge(i)), float64(s.upperEdge(i))
			frac := (rank - float64(cum)) / float64(c)
			v := lo + frac*(hi-lo)
			if v < float64(s.Min) {
				v = float64(s.Min)
			}
			if v > float64(s.Max) {
				v = float64(s.Max)
			}
			return v
		}
		cum += c
	}
	return float64(s.Max)
}

// Merge returns the element-wise sum of two snapshots of histograms with
// identical bounds (e.g. per-worker histograms combined into a run total).
func (s HistSnapshot) Merge(o HistSnapshot) (HistSnapshot, error) {
	if len(o.Counts) == 0 {
		return s, nil
	}
	if len(s.Counts) == 0 {
		return o, nil
	}
	if !boundsEqual(s.Bounds, o.Bounds) {
		return HistSnapshot{}, fmt.Errorf("obs: merge of histograms with different bounds")
	}
	out := HistSnapshot{
		Bounds: append([]int64(nil), s.Bounds...),
		Counts: make([]int64, len(s.Counts)),
		Count:  s.Count + o.Count,
		Sum:    s.Sum + o.Sum,
		Min:    s.Min,
		Max:    s.Max,
	}
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] + o.Counts[i]
	}
	switch {
	case s.Count == 0:
		out.Min, out.Max = o.Min, o.Max
	case o.Count == 0:
	default:
		if o.Min < out.Min {
			out.Min = o.Min
		}
		if o.Max > out.Max {
			out.Max = o.Max
		}
	}
	return out, nil
}

// Sub returns the per-bucket difference s - prev, for windowing a live
// histogram between two snapshots. Min and Max cannot be recovered for the
// window, so the later snapshot's values are kept (they bound the window's
// true extremes).
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	if len(prev.Counts) == 0 || !boundsEqual(s.Bounds, prev.Bounds) {
		return s
	}
	out := HistSnapshot{
		Bounds: append([]int64(nil), s.Bounds...),
		Counts: make([]int64, len(s.Counts)),
		Count:  s.Count - prev.Count,
		Sum:    s.Sum - prev.Sum,
		Min:    s.Min,
		Max:    s.Max,
	}
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] - prev.Counts[i]
	}
	return out
}

func boundsEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Registry is a named collection of counters and histograms. Metric
// lookups take a lock; the returned pointers are cached by callers so the
// hot path never touches the registry again.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use. Later calls return the existing histogram regardless of
// bounds.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h = NewHistogram(bounds)
	r.hists[name] = h
	return h
}

// Snapshot captures every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Snapshot is a point-in-time capture of a registry, serializable to JSON
// (the /.piggy/stats payload).
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Counter returns the named counter value, or 0 when absent.
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Hist returns the named histogram snapshot.
func (s Snapshot) Hist(name string) (HistSnapshot, bool) {
	h, ok := s.Histograms[name]
	return h, ok
}

// Sub returns the windowed difference s - prev: counter deltas and
// histogram bucket deltas. Metrics absent from prev pass through unchanged.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Histograms: make(map[string]HistSnapshot, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		out.Counters[name] = v - prev.Counters[name]
	}
	for name, h := range s.Histograms {
		if p, ok := prev.Histograms[name]; ok {
			h = h.Sub(p)
		}
		out.Histograms[name] = h
	}
	return out
}

// Merge returns the element-wise sum of two snapshots (counters added,
// same-name histograms merged; mismatched histogram bounds keep s's).
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)+len(o.Counters)),
		Histograms: make(map[string]HistSnapshot, len(s.Histograms)+len(o.Histograms)),
	}
	for name, v := range s.Counters {
		out.Counters[name] = v
	}
	for name, v := range o.Counters {
		out.Counters[name] += v
	}
	for name, h := range s.Histograms {
		out.Histograms[name] = h
	}
	for name, h := range o.Histograms {
		if cur, ok := out.Histograms[name]; ok {
			if m, err := cur.Merge(h); err == nil {
				out.Histograms[name] = m
			}
		} else {
			out.Histograms[name] = h
		}
	}
	return out
}

// JSON serializes the snapshot.
func (s Snapshot) JSON() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// Maps of plain values cannot fail to marshal.
		panic(err)
	}
	return b
}

// ParseSnapshot decodes a snapshot produced by JSON (or the stats
// endpoint).
func ParseSnapshot(b []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return Snapshot{}, fmt.Errorf("obs: parse snapshot: %v", err)
	}
	if s.Counters == nil {
		s.Counters = make(map[string]int64)
	}
	if s.Histograms == nil {
		s.Histograms = make(map[string]HistSnapshot)
	}
	return s, nil
}

// WireMetrics bundles the metrics one side of the wire protocol maintains:
// exchange counts, failures, reconnects, body bytes, per-exchange latency,
// and — on the client side — the connection-pool gauges. Constructed
// against a registry so the values appear in its snapshots under
// prefix-qualified names.
type WireMetrics struct {
	Requests *Counter // completed exchanges
	Errors   *Counter // failed exchanges
	Retries  *Counter // client: exchanges retried on a fresh connection
	Dials    *Counter // client: connections established
	BytesIn  *Counter // message body bytes received
	BytesOut *Counter // message body bytes sent
	Latency  *Histogram

	// Connection gauges (client side; a server leaves them zero).
	ConnsOpen  *Counter // gauge: open connections (idle + in use)
	ConnsIdle  *Counter // gauge: open connections with no exchange in flight
	PoolWaits  *Counter // requests that waited for a slot at the per-host bound
	IdleClosed *Counter // connections reaped after IdleConnTimeout with no exchange in flight

	// Syscall-budget counters (prefix.syscalls.*): WriteOps counts write
	// syscalls issued (one per writev batch), ReadOps counts read syscalls
	// (one per bufio fill), and WriteBatch is the distribution of messages
	// coalesced per write. writes/op = syscalls.writes ÷ requests.
	WriteOps   *Counter
	ReadOps    *Counter
	WriteBatch *Histogram

	// Per-class failure counters, one per wireerr taxonomy class
	// (prefix.err.dial_timeout and peers). Errors above stays the total.
	ErrDialTimeout    *Counter
	ErrRequestTimeout *Counter
	ErrCanceled       *Counter
	ErrCircuitOpen    *Counter
	ErrTruncated      *Counter
	ErrOther          *Counter
}

// CountErrClass increments the failure counter for a wireerr class string
// (as returned by wireerr.Class): "dial_timeout", "request_timeout",
// "canceled", "circuit_open", "truncated", or anything else → other. The
// parameter is a string rather than an error so obs stays free of wire
// dependencies. A nil receiver or empty class is a no-op.
func (m *WireMetrics) CountErrClass(class string) {
	if m == nil || class == "" {
		return
	}
	switch class {
	case "dial_timeout":
		m.ErrDialTimeout.Inc()
	case "request_timeout":
		m.ErrRequestTimeout.Inc()
	case "canceled":
		m.ErrCanceled.Inc()
	case "circuit_open":
		m.ErrCircuitOpen.Inc()
	case "truncated":
		m.ErrTruncated.Inc()
	default:
		m.ErrOther.Inc()
	}
}

// NewWireMetrics registers wire metrics under prefix (e.g. "wire.server")
// in r: prefix.requests, prefix.errors, prefix.retries, prefix.dials,
// prefix.bytes_in, prefix.bytes_out, prefix.latency_us, the pool gauges
// prefix.conns_open, prefix.conns_idle, prefix.pool_waits, and
// prefix.idle_closed, the syscall-budget metrics prefix.syscalls.writes,
// prefix.syscalls.reads, and prefix.syscalls.batch, plus per-class failure
// counters prefix.err.{dial_timeout,request_timeout,canceled,circuit_open,
// truncated,other}.
func NewWireMetrics(r *Registry, prefix string) *WireMetrics {
	return &WireMetrics{
		Requests:          r.Counter(prefix + ".requests"),
		Errors:            r.Counter(prefix + ".errors"),
		Retries:           r.Counter(prefix + ".retries"),
		Dials:             r.Counter(prefix + ".dials"),
		BytesIn:           r.Counter(prefix + ".bytes_in"),
		BytesOut:          r.Counter(prefix + ".bytes_out"),
		Latency:           r.Histogram(prefix+".latency_us", LatencyBuckets()),
		ConnsOpen:         r.Counter(prefix + ".conns_open"),
		ConnsIdle:         r.Counter(prefix + ".conns_idle"),
		PoolWaits:         r.Counter(prefix + ".pool_waits"),
		IdleClosed:        r.Counter(prefix + ".idle_closed"),
		WriteOps:          r.Counter(prefix + ".syscalls.writes"),
		ReadOps:           r.Counter(prefix + ".syscalls.reads"),
		WriteBatch:        r.Histogram(prefix+".syscalls.batch", BatchBuckets()),
		ErrDialTimeout:    r.Counter(prefix + ".err.dial_timeout"),
		ErrRequestTimeout: r.Counter(prefix + ".err.request_timeout"),
		ErrCanceled:       r.Counter(prefix + ".err.canceled"),
		ErrCircuitOpen:    r.Counter(prefix + ".err.circuit_open"),
		ErrTruncated:      r.Counter(prefix + ".err.truncated"),
		ErrOther:          r.Counter(prefix + ".err.other"),
	}
}

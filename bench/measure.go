package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"piggyback/internal/cache"
	"piggyback/internal/obs"
	"piggyback/internal/proxy"
	"piggyback/internal/server"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports; its JSON form is the last
// line the command prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// broken lists the self-checks the workload did not pass.
	broken []string
}

// runConfig is one invocation.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	outDir  string
	// quick sets up once (twice when traced, for the untraced reference),
	// shrinks the warm-up and drops the workload self-checks, whose
	// thresholds need a full-length run; tests use it.
	quick bool
}

// setups is how many times a run builds and warms the stack; setup_s is the
// median. The measured window runs on the last one.
const setups = 3

// spanCapacity bounds the spans one traced run records (32 bytes each in
// memory, about 100 in the span file). The traced window ends when they are
// used up: after some 170k requests on hit_small, some 110k on churn_piggy.
const spanCapacity = 1 << 19

// counters is every counter and clock the benchmark reads from outside the
// stack, taken before and after the measured window.
type counters struct {
	px        proxy.Stats
	origin    server.Stats
	store     cache.StoreStats
	obs       obs.Snapshot
	exchanges int64
	wireBytes int64
	cpu       time.Duration
	mem       runtime.MemStats
	storeCall int64
	mods      int64
}

func (s *stack) read() counters {
	c := counters{
		px: s.px.Stats(), origin: s.origin.Stats(), store: s.store.Stats(),
		obs: s.px.Obs().Snapshot(), exchanges: s.oh.exchanges.Load(),
		wireBytes: s.oconns.wireBytes(), cpu: processCPU(), mods: s.world.mods.Load(),
	}
	if s.tstore != nil {
		c.storeCall = s.tstore.calls.Load()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// processCPU is the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// rank is the nearest-rank position (1-based) of the p-th percentile among n
// samples: ceil(p/100 × n), computed in integers — p has at most two decimals —
// because 99.9/100×1000 is 999.0000000000001 in floating point.
func rank(p float64, n int) int {
	hundredths := int(math.Round(p * 100))
	return (hundredths*n + 9999) / 10000
}

// percentile returns the exact p-th percentile (nearest rank) of sorted raw
// samples; no histogram, no interpolation.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(max(rank(p, len(sorted)), 1), len(sorted))-1]
}

// highestSupported is the highest of the percentiles 50, 90, 99, 99.9, 99.99
// that has at least ten of n samples beyond it.
func highestSupported(n int) float64 {
	best := 50.0
	for _, p := range []float64{90, 99, 99.9, 99.99} {
		if n-rank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// run executes one workload once and reports it.
func run(cfg runConfig) (result, error) {
	w := cfg.w
	tmpRoot := filepath.Join(cfg.outDir, "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return result{}, err
	}
	warmup, setups := int64(w.warmup), setups
	if cfg.quick {
		warmup /= 4
		setups = 1
		if cfg.trace {
			setups = 2
		}
	}
	length := time.Duration(cfg.seconds * float64(time.Second))

	res := result{Metrics: make(map[string]metric)}
	count := func(w window) window {
		res.Attempted += w.attempted
		res.Failed += w.failed
		return w
	}
	// setUp generates the inputs, starts a stack and warms it, and times that.
	var setupTimes []float64
	setUp := func(tr *tracer) (*stack, *driver, error) {
		t0 := time.Now()
		in := w.generate(cfg.seed)
		st, err := newStack(w, in, tmpRoot, tr)
		if err != nil {
			return nil, nil, err
		}
		d := &driver{w: w, in: in, st: st, tr: tr}
		// One request on its own first, so that exactly one upstream
		// connection is dialed: two simultaneous first misses would each
		// dial, and how many connections share the origin's serial service
		// would be decided by that race.
		count(d.replay(1, time.Time{}, 1))
		count(d.replay(warmup-1, time.Time{}, int(warmup)))
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		return st, d, nil
	}

	var refRps float64
	for i := 1; i < setups; i++ {
		st, d, err := setUp(nil)
		if err != nil {
			return result{}, err
		}
		if cfg.trace && i == setups-1 {
			// The untraced reference for trace.overhead_pct.
			runtime.GC()
			refRps, _, _ = count(d.replay(0, time.Now().Add(length/4), 1<<16)).rates()
		}
		st.close()
		runtime.GC() // each set-up starts from the same heap
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer(spanCapacity)
	}
	st, d, err := setUp(tr)
	if err != nil {
		return result{}, err
	}
	defer st.close()
	if cfg.trace {
		d.capture = newCaptured(w.churn)
	}
	runtime.GC()
	before := st.read()
	win := count(d.replay(0, time.Now().Add(length), 1<<20))
	after := st.read()

	m := measured{w: w, win: win, before: before, after: after, st: st}
	if cfg.trace {
		m.layerMetrics(res.Metrics, tr, d.capture, refRps)
		if err := writeSpans(filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl"), tr.recorded()); err != nil {
			return result{}, err
		}
	} else {
		m.endToEnd(res.Metrics, medianFloat(setupTimes))
	}
	if !cfg.quick {
		res.broken = m.selfCheck()
	}
	res.Correct = res.Failed == 0 && len(res.broken) == 0
	return res, nil
}

// rates are the window's requests per second, CPU microseconds per request
// and delivered megabytes per second: each the median over the slices that
// completed a request, or the whole window's figure when it is shorter than a
// slice.
func (w window) rates() (rps, cpuUs, mbps float64) {
	var r, c, g []float64
	for _, s := range w.slices {
		if s.requests > 0 {
			r = append(r, float64(s.requests)/sliceLen.Seconds())
			c = append(c, float64(s.cpu.Microseconds())/float64(s.requests))
			g = append(g, float64(s.bytes)/1e6/sliceLen.Seconds())
		}
	}
	if len(r) == 0 {
		n := float64(len(w.latencies))
		return ratio(n, w.wall.Seconds()), 0, ratio(float64(w.bytes)/1e6, w.wall.Seconds())
	}
	return medianFloat(r), medianFloat(c), medianFloat(g)
}

// percentiles are the client-observed median and 99th-percentile latency in
// microseconds: each the median over the slices of that slice's exact
// percentile, like the rates, or the whole window's when it is shorter than a
// slice.
func (w window) percentiles() (p50, p99 float64) {
	var a, b []float64
	for _, s := range w.slices {
		if len(s.latencies) > 0 {
			a = append(a, float64(percentile(s.latencies, 50))/1e3)
			b = append(b, float64(percentile(s.latencies, 99))/1e3)
		}
	}
	if len(a) == 0 {
		lat := append([]int64(nil), w.latencies...)
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return float64(percentile(lat, 50)) / 1e3, float64(percentile(lat, 99)) / 1e3
	}
	return medianFloat(a), medianFloat(b)
}

// measured is one measured window with the counter readings around it.
type measured struct {
	w             *workload
	win           window
	before, after counters
	st            *stack
}

func (m *measured) requests() float64 { return float64(m.win.attempted) }

// endToEnd fills in the metrics a user of the system would see.
func (m *measured) endToEnd(out map[string]metric, setup float64) {
	verified := float64(len(m.win.latencies))
	originReqs := float64(m.after.exchanges - m.before.exchanges)
	originBytes := float64(m.after.wireBytes - m.before.wireBytes)

	rps, cpu, goodput := m.win.rates()
	p50, p99 := m.win.percentiles()
	out["setup_s"] = metric{setup, "s"}
	out["throughput_rps"] = metric{rps, "req/s"}
	out["latency_p50_us"] = metric{p50, "us"}
	out["latency_p99_us"] = metric{p99, "us"}
	out["cpu_us_per_req"] = metric{cpu, "us"}
	out["goodput_mbps"] = metric{goodput, "MB/s"}
	out["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	// The three outcome metrics are stated as the share the proxy absorbed
	// or got right, not as what got through: on a workload that is all
	// hits the latter is 0, and a relative bound on 0 gates nothing.
	out["origin_offload_ratio"] = metric{1 - ratio(originReqs, m.requests()), "ratio"}
	out["origin_bytes_offload_ratio"] = metric{1 - ratio(originBytes, float64(m.win.bytes)), "ratio"}
	out["fresh_ratio"] = metric{1 - ratio(float64(m.win.stale), verified), "ratio"}
}

// selfCheck verifies that the workload did what its description says.
func (m *measured) selfCheck() []string {
	var broken []string
	need := func(ok bool, format string, args ...any) {
		if !ok {
			broken = append(broken, fmt.Sprintf(format, args...))
		}
	}
	px := diffProxy(m.after.px, m.before.px)
	cs := diffStore(m.after.store, m.before.store)
	need(m.win.failed == 0, "%d operations failed", m.win.failed)
	need(px.UpstreamErrors == 0, "%d upstream errors", px.UpstreamErrors)
	need(px.StaleServes == 0, "%d stale-on-error serves", px.StaleServes)
	switch m.w.name {
	case "hit_small":
		r := ratio(float64(px.FreshHits), float64(px.ClientRequests))
		need(r >= 0.99, "fresh-hit ratio %.4f < 0.99", r)
	case "churn_piggy":
		need(px.Prefetches > 0, "no prefetches")
		need(px.UsefulPrefetches > 0, "no useful prefetches")
		need(px.Invalidations > 0, "no invalidations")
		need(px.Refreshes > 0, "no refreshes")
		need(px.DeltaUpdates > 0, "no delta updates")
	case "churn_plain":
		need(px.PiggybacksReceived == 0, "%d piggybacks on the baseline proxy", px.PiggybacksReceived)
		need(px.Validations > 0, "no validations")
	case "disk_large":
		need(cs.Promotions > 0, "no promotions")
		need(cs.Demotions > 0, "no demotions")
		lookups := float64(cs.Hits + cs.Misses)
		ram := ratio(float64(cs.Hits-cs.DiskHits), lookups)
		disk := ratio(float64(cs.DiskHits), lookups)
		origin := ratio(float64(cs.Misses), lookups)
		need(ram >= 0.10 && disk >= 0.10 && origin >= 0.10,
			"RAM %.2f, disk %.2f, origin %.2f: each must answer at least 0.10 of the requests", ram, disk, origin)
	}
	return broken
}

func diffProxy(a, b proxy.Stats) proxy.Stats {
	a.ClientRequests -= b.ClientRequests
	a.FreshHits -= b.FreshHits
	a.Validations -= b.Validations
	a.NotModified -= b.NotModified
	a.MissFetches -= b.MissFetches
	a.PiggybacksReceived -= b.PiggybacksReceived
	a.PiggybackElements -= b.PiggybackElements
	a.Refreshes -= b.Refreshes
	a.Invalidations -= b.Invalidations
	a.Prefetches -= b.Prefetches
	a.UsefulPrefetches -= b.UsefulPrefetches
	a.DeltaUpdates -= b.DeltaUpdates
	a.DeltaBytesSaved -= b.DeltaBytesSaved
	a.SingleflightShared -= b.SingleflightShared
	a.UpstreamErrors -= b.UpstreamErrors
	a.StaleServes -= b.StaleServes
	return a
}

func diffStore(a, b cache.StoreStats) cache.StoreStats {
	a.Hits -= b.Hits
	a.Misses -= b.Misses
	a.Evictions -= b.Evictions
	a.Demotions -= b.Demotions
	a.Promotions -= b.Promotions
	a.DiskHits -= b.DiskHits
	a.Compactions -= b.Compactions
	return a // DiskBytes is a level, not a count
}

func diffServer(a, b server.Stats) server.Stats {
	a.Requests -= b.Requests
	a.PiggybacksSent -= b.PiggybacksSent
	a.PiggybackElems -= b.PiggybackElems
	a.PiggybackBytes -= b.PiggybackBytes
	a.DeltasSent -= b.DeltasSent
	return a
}

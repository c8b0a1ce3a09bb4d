package main

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"piggyback/internal/httpwire"
)

// nClients is the load: a closed loop of exactly two client connections, one
// goroutine each, in the same process as the stack. Closed, because a
// browser's connection to its proxy waits for the reply; two, so that the
// stack always has a second request to overlap with an upstream exchange and
// never more runnable clients than the reference machine has CPUs.
const nClients = 2

// procs is the GOMAXPROCS the benchmark process runs with. Clients, proxy and
// origin are goroutines of one process; on one processor a reply is handed
// from goroutine to goroutine on the same thread. With two, most hand-offs
// wake the other virtual CPU, and on a shared host the cost of that wake-up
// (an inter-processor interrupt and an exit to the hypervisor) depends on the
// host's other tenants: the same code then read 56k–75k req/s and 23–33 µs of
// CPU per request on hit_small from run to run, against ±2 % on one processor.
// The second CPU is left to the kernel and to threads blocked in system calls.
const procs = 1

// driver replays the generated requests through the proxy and rules on every
// response.
type driver struct {
	w  *workload
	in *inputs
	st *stack
	tr *tracer
	// next is the sequence number of the next request to send. It runs
	// across passes over the log: request seq is record seq%len on lap
	// seq/len.
	next atomic.Int64
	// capture, in a traced run, keeps a few exchanges and body pairs for
	// the isolated per-call replays.
	capture *captured
}

// tally is what was seen of a stretch of requests — by one client, or by all
// of them over one window.
type tally struct {
	latencies []int64 // ns, one per verified request
	// slices[k] covers the k-th sliceLen of the window: the verified requests
	// and body bytes whose reply arrived in it. Rates are reported as the
	// median over the slices, so that a collection cycle or a stall of the
	// machine moves one slice and not the result.
	slices    []slice
	attempted int64
	failed    int64
	stale     int64
	bytes     int64 // verified response-body bytes
}

// window is the merged outcome of one replay window.
type window struct {
	tally
	wall time.Duration
}

// slice is one sliceLen of the window. cpu, the CPU time the process used in
// it, is known for the window as a whole only.
type slice struct {
	cpu      time.Duration
	requests int64
	bytes    int64
	// latencies are those of the slice's requests, all clients', sorted: a
	// stretch of the window's samples.
	latencies []int64
}

const sliceLen = 500 * time.Millisecond

// replay sends requests from the current position until limit requests have
// been taken (limit > 0) or until the deadline passes, and returns what the
// clients saw. sizeHint preallocates the latency samples.
func (d *driver) replay(limit int64, deadline time.Time, sizeHint int) window {
	var wg sync.WaitGroup
	stats := make([]tally, nClients)
	ends := make([]time.Time, nClients)
	start := time.Now()
	stop := d.next.Load() + limit
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stats[c].latencies = make([]int64, 0, sizeHint/nClients)
			ends[c] = d.client(&stats[c], limit > 0, stop, start, deadline)
		}(c)
	}
	// The sampler reads the CPU clock at every slice boundary.
	cpu := []time.Duration{processCPU()}
	finished := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(sliceLen)
		defer tick.Stop()
		for {
			select {
			case <-finished:
				return
			case <-tick.C:
				cpu = append(cpu, processCPU())
			}
		}
	}()
	wg.Wait()
	close(finished)
	<-sampled

	out := merge(stats, cpu)
	end := start
	for _, e := range ends {
		if e.After(end) {
			end = e
		}
	}
	out.wall = end.Sub(start)
	return out
}

// merge adds up what the clients saw. cpu holds the CPU clock at the start of
// the window and at every slice boundary after it; only whole slices are kept.
func merge(stats []tally, cpu []time.Duration) window {
	var out window
	out.slices = make([]slice, len(cpu)-1)
	for k := range out.slices {
		out.slices[k].cpu = cpu[k+1] - cpu[k]
	}
	var total int
	for i := range stats {
		cs := &stats[i]
		total += len(cs.latencies)
		out.attempted += cs.attempted
		out.failed += cs.failed
		out.stale += cs.stale
		out.bytes += cs.bytes
	}
	// The samples are laid out slice by slice, so that each slice's are one
	// stretch of out.latencies; those of the last, partial slice follow. A
	// client's samples are in reply order, and so are its slices.
	out.latencies = make([]int64, 0, total)
	for k := range out.slices {
		from := len(out.latencies)
		for i := range stats {
			cs := &stats[i]
			if k < len(cs.slices) {
				n := cs.slices[k].requests
				out.slices[k].requests += n
				out.slices[k].bytes += cs.slices[k].bytes
				out.latencies = append(out.latencies, cs.latencies[:n]...)
				cs.latencies = cs.latencies[n:]
			}
		}
		l := out.latencies[from:]
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		out.slices[k].latencies = l
	}
	for i := range stats {
		out.latencies = append(out.latencies, stats[i].latencies...)
	}
	return out
}

// client is one closed-loop connection. It returns when its last reply came.
func (d *driver) client(cs *tally, counted bool, stop int64, start, deadline time.Time) (last time.Time) {
	cl := httpwire.NewClient()
	cl.MaxConnsPerHost = 1
	defer cl.Close()
	ctx := context.Background()
	n := int64(len(d.in.records))
	var scratch, hdr []byte
	for {
		// A client stops once a reply arrived after the deadline. A traced
		// window also ends when the span memory is used up.
		if !counted && (last.After(deadline) || d.tr.full()) {
			return last
		}
		seq := d.next.Load()
		if counted && seq >= stop {
			return last
		}
		if !d.next.CompareAndSwap(seq, seq+1) {
			continue
		}
		rec := d.in.records[seq%n]
		res := &d.in.resources[rec.res]
		sentAt := d.in.start
		if d.w.churn {
			sentAt = d.st.world.advance(rec.t + (seq/n)*d.in.lapSpan)
		}
		if d.w.piggy && seq%prefetchEvery == 0 {
			d.st.kickDrain()
		}
		req := httpwire.NewRequest("GET", res.url)
		req.Header.Set("Host", originHost)
		root := d.tr.begin(spClient, -1, uint32(seq+1))
		if root >= 0 {
			hdr = strconv.AppendInt(hdr[:0], int64(root), 10)
			req.Header.Set(spanHeader, string(hdr))
		}
		t0 := time.Now()
		resp, err := cl.DoContext(ctx, d.st.proxyAddr, req)
		t1 := time.Now()
		d.tr.end(root)
		cs.attempted++
		last = t1
		if err != nil {
			cs.failed++
			continue
		}
		if root >= 0 {
			d.tr.spans[root].outcome = outcomeOf(resp)
		}
		lm, ok := checkBody(res, resp, &scratch)
		v := violation
		if ok {
			v = judge(res, lm, sentAt, d.w.delta)
		}
		if v == violation {
			cs.failed++
			continue
		}
		if v == stale {
			cs.stale++
		}
		cs.bytes += int64(len(resp.Body))
		cs.latencies = append(cs.latencies, int64(t1.Sub(t0)))
		k := int(t1.Sub(start) / sliceLen)
		for len(cs.slices) <= k {
			cs.slices = append(cs.slices, slice{})
		}
		cs.slices[k].requests++
		cs.slices[k].bytes += int64(len(resp.Body))
		if d.capture != nil {
			d.capture.note(rec.res, lm, req, resp)
		}
	}
}

package main

import (
	"bufio"
	"bytes"
	"io"
	"sort"
	"sync"
	"time"

	"piggyback/internal/cache"
	"piggyback/internal/delta"
	"piggyback/internal/httpwire"
	"piggyback/internal/obs"
)

// Isolated per-call costs: messages and bodies captured from the workload's
// own traffic are replayed through a layer's exported function, away from
// sockets and the scheduler. Each cost is the median over replayBatches
// batches of the batch time divided by the calls in it. A batch is
// replayCalls calls, fewer when the messages are so large that a batch would
// move more than replayBytes.
const (
	replayBatches = 5
	replayCalls   = 10000
	replayBytes   = 32 << 20
	// keepExchanges and keepPairs bound what a traced run holds on to.
	keepExchanges = 256
	keepPairs     = 64
	keepBytes     = 8 << 20
)

// captured holds what a traced run's clients set aside for the replays.
type captured struct {
	mu    sync.Mutex
	reqs  []*httpwire.Request
	resps []*httpwire.Response
	held  int
	// last is the newest body seen per resource, kept only where the origin
	// mutates; a newer version arriving makes an (old, new) pair for the
	// delta replay.
	last  map[int32]bodyVersion
	pairs [][2][]byte
}

type bodyVersion struct {
	lm   int64
	body []byte
}

func newCaptured(pairs bool) *captured {
	c := &captured{}
	if pairs {
		c.last = make(map[int32]bodyVersion)
	}
	return c
}

func (c *captured) note(res int32, lm int64, req *httpwire.Request, resp *httpwire.Response) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.reqs) < keepExchanges && c.held+len(resp.Body) <= keepBytes {
		c.reqs = append(c.reqs, req)
		c.resps = append(c.resps, resp)
		c.held += len(resp.Body)
	}
	if c.last == nil || len(c.pairs) >= keepPairs {
		return
	}
	prev, seen := c.last[res]
	if seen && lm > prev.lm && len(prev.body) == len(resp.Body) {
		c.pairs = append(c.pairs, [2][]byte{prev.body, resp.Body})
	}
	if !seen || lm > prev.lm {
		c.last[res] = bodyVersion{lm, resp.Body}
	}
}

// medianBatchNs runs batch replayBatches times and returns the median time
// per call in nanoseconds. batch returns how many calls it made.
func medianBatchNs(batch func() int) float64 {
	per := make([]float64, 0, replayBatches)
	for i := 0; i < replayBatches; i++ {
		t0 := time.Now()
		n := batch()
		if n == 0 {
			return 0
		}
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	sort.Float64s(per)
	return per[len(per)/2]
}

// callsFor is the batch size for messages of the given mean size.
func callsFor(meanBytes int) int {
	if meanBytes*replayCalls > replayBytes {
		return max(replayBytes/meanBytes, 100)
	}
	return replayCalls
}

// wireCosts replays the captured exchanges through httpwire's four exported
// message functions.
func (c *captured) wireCosts() (parseReq, writeReq, readResp, writeResp float64) {
	if len(c.reqs) == 0 {
		return
	}
	calls := callsFor(c.held / len(c.resps))
	var reqStream, respStream bytes.Buffer
	bw := bufio.NewWriter(&reqStream)
	for i := 0; i < calls; i++ {
		httpwire.WriteRequest(bw, c.reqs[i%len(c.reqs)])
	}
	bw = bufio.NewWriter(&respStream)
	for i := 0; i < calls; i++ {
		httpwire.WriteResponse(bw, c.resps[i%len(c.resps)], false)
	}

	parseReq = medianBatchNs(func() int {
		br := bufio.NewReader(bytes.NewReader(reqStream.Bytes()))
		for i := 0; i < calls; i++ {
			if _, err := httpwire.ReadRequest(br); err != nil {
				return 0
			}
		}
		return calls
	})
	readResp = medianBatchNs(func() int {
		br := bufio.NewReader(bytes.NewReader(respStream.Bytes()))
		for i := 0; i < calls; i++ {
			if _, err := httpwire.ReadResponse(br, false); err != nil {
				return 0
			}
		}
		return calls
	})
	out := bufio.NewWriter(io.Discard)
	writeReq = medianBatchNs(func() int {
		for i := 0; i < calls; i++ {
			httpwire.WriteRequest(out, c.reqs[i%len(c.reqs)])
		}
		return calls
	})
	writeResp = medianBatchNs(func() int {
		for i := 0; i < calls; i++ {
			httpwire.WriteResponse(out, c.resps[i%len(c.resps)], false)
		}
		return calls
	})
	return
}

// deltaCosts replays the captured (old, new) body pairs through delta.Make
// and delta.Apply. The costs are microseconds per call; ratio is patch bytes
// over full-body bytes.
func (c *captured) deltaCosts() (makeUs, applyUs, ratio float64) {
	if len(c.pairs) == 0 {
		return
	}
	var full, patched int
	patches := make([]delta.Patch, len(c.pairs))
	for i, p := range c.pairs {
		patches[i] = delta.Make(p[0], p[1], delta.DefaultBlockSize)
		full += len(p[1])
		patched += len(patches[i].Encode())
	}
	calls := callsFor(full / len(c.pairs))
	makeUs = medianBatchNs(func() int {
		for i := 0; i < calls; i++ {
			p := c.pairs[i%len(c.pairs)]
			delta.Make(p[0], p[1], delta.DefaultBlockSize)
		}
		return calls
	}) / 1e3
	applyUs = medianBatchNs(func() int {
		for i := 0; i < calls; i++ {
			k := i % len(c.pairs)
			if _, err := delta.Apply(c.pairs[k][0], patches[k]); err != nil {
				return 0
			}
		}
		return calls
	}) / 1e3
	return makeUs, applyUs, float64(patched) / float64(full)
}

// lookupCost replays the captured Lookup keys against the store the run used.
func lookupCost(store cache.Store, keys []string, now int64) float64 {
	if len(keys) == 0 {
		return 0
	}
	return medianBatchNs(func() int {
		for i := 0; i < replayCalls; i++ {
			store.Lookup(keys[i%len(keys)], now)
		}
		return replayCalls
	})
}

// observeCost times obs.Histogram.Observe, which the wire server pays on
// every request.
func observeCost() float64 {
	h := obs.NewHistogram(obs.LatencyBuckets())
	return medianBatchNs(func() int {
		for i := 0; i < 10*replayCalls; i++ {
			h.Observe(int64(i & 4095))
		}
		return 10 * replayCalls
	})
}

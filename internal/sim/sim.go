// Package sim is the trace-driven evaluation harness: it replays a server
// log (treated as a pseudo-proxy trace: each source IP is a proxy, App. A)
// against a volume provider, simulating the piggyback exchange per source
// and computing the paper's three metrics (§3.1) plus piggyback cost.
package sim

import (
	"piggyback/internal/core"
	"piggyback/internal/trace"
)

// cacheWindow is the "cached recently" window of the update-fraction
// metric, in seconds.
const cacheWindow = 7200 // C: two hours, §3.1

// Config parameterizes one simulation run.
type Config struct {
	// T is the prediction window in seconds (§3.1; the paper uses 300).
	T int64
	// Provider is the volume engine under evaluation. Every replayed
	// request is fed to its Observe: directory volumes are maintained
	// online; probability volumes are built offline and ignore it.
	Provider core.Provider
	// BaseFilter is the filter each simulated proxy attaches to
	// requests (before its RPV list is added).
	BaseFilter core.Filter
	// RPVTimeout > 0 gives each source an RPV list whose entries live
	// this many seconds: the minimum time between successive piggybacks
	// of one volume (Fig 4's x-axis). Zero attaches no RPV list.
	RPVTimeout int64
}

// Result accumulates the evaluation metrics of §3.1.
type Result struct {
	// Requests is the number of replayed requests.
	Requests int
	// Predicted counts requests whose resource appeared in a piggyback
	// message to the same source within the last T seconds — the
	// numerator of the fraction-predicted (recall) metric.
	Predicted int
	// PrevWithinT counts requests whose resource was requested by the
	// same source within the last T seconds (Table 1 column 3: the
	// cache plausibly holds a fresh copy already).
	PrevWithinT int
	// PrevWithinC counts requests with a previous occurrence within C
	// seconds (Table 1 column 2: plausible cache hits).
	PrevWithinC int
	// UpdatedTC counts requests that were predicted within T and whose
	// previous occurrence lies in (T, C] seconds ago (Table 1 column 4:
	// a piggyback updated an older cached copy).
	UpdatedTC int
	// UpdateEvents counts requests predicted within T with any previous
	// occurrence within C — the §3.1 update-fraction numerator
	// (Fig 3(b)).
	UpdateEvents int

	// Piggyback cost accounting.
	PiggybackMessages int
	PiggybackElements int
	PiggybackBytes    int64

	// Prediction instance accounting for the true-prediction (precision)
	// metric. Re-piggybacks of a live prediction merge into one instance
	// (§3.1: "counted as a single prediction").
	TotalPredictions     int
	FulfilledPredictions int

	// Byte accounting for the §4 prefetching tradeoffs: if the proxy
	// prefetched every predicted resource, FulfilledBytes would be
	// useful transfers and FutileBytes wasted bandwidth, against
	// ResponseBytes of demand traffic.
	FulfilledBytes int64
	FutileBytes    int64
	ResponseBytes  int64
}

// FutileFetchFraction is the share of prefetches that would be wasted.
func (r Result) FutileFetchFraction() float64 {
	return ratio(r.TotalPredictions-r.FulfilledPredictions, r.TotalPredictions)
}

// PrefetchBandwidthIncrease estimates the §4 bandwidth overhead of
// prefetching every prediction: wasted bytes over demand bytes.
func (r Result) PrefetchBandwidthIncrease() float64 {
	if r.ResponseBytes == 0 {
		return 0
	}
	return float64(r.FutileBytes) / float64(r.ResponseBytes)
}

// FractionPredicted is the recall metric: the likelihood that a requested
// resource appeared in a piggyback to the same source in the last T seconds.
func (r Result) FractionPredicted() float64 { return ratio(r.Predicted, r.Requests) }

// TruePredictionFraction is the precision metric: the likelihood that a
// piggybacked resource is requested within the next T seconds.
func (r Result) TruePredictionFraction() float64 {
	return ratio(r.FulfilledPredictions, r.TotalPredictions)
}

// UpdateFraction is the §3.1 update metric: requests predicted within T
// that also occurred previously within C.
func (r Result) UpdateFraction() float64 { return ratio(r.UpdateEvents, r.Requests) }

// FracPrevWithinT and FracPrevWithinC are Table 1 columns 3 and 2.
func (r Result) FracPrevWithinT() float64 { return ratio(r.PrevWithinT, r.Requests) }
func (r Result) FracPrevWithinC() float64 { return ratio(r.PrevWithinC, r.Requests) }

// FracUpdatedTC is Table 1 column 4.
func (r Result) FracUpdatedTC() float64 { return ratio(r.UpdatedTC, r.Requests) }

// AvgPiggybackSize is the mean number of elements per non-empty piggyback
// message.
func (r Result) AvgPiggybackSize() float64 {
	return ratio(r.PiggybackElements, r.PiggybackMessages)
}

// AvgPiggybackSizePerRequest spreads elements over all requests (the cost
// per response including responses with no piggyback).
func (r Result) AvgPiggybackSizePerRequest() float64 {
	return ratio(r.PiggybackElements, r.Requests)
}

// AvgPiggybackBytes is the mean wire bytes per non-empty piggyback message.
func (r Result) AvgPiggybackBytes() float64 {
	if r.PiggybackMessages == 0 {
		return 0
	}
	return float64(r.PiggybackBytes) / float64(r.PiggybackMessages)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// predInstance is one live prediction of a resource for a source.
type predInstance struct {
	expiry    int64
	fulfilled bool
	size      int64
}

// srcState is the per-source (per-proxy) simulation state.
type srcState struct {
	lastReq map[string]int64
	pred    map[string]*predInstance
	rpv     *core.RPVList
}

// Simulator replays a log through the piggyback protocol.
type Simulator struct {
	cfg     Config
	sources map[string]*srcState
	res     Result
}

// New returns a Simulator for cfg. Zero T defaults to 300.
func New(cfg Config) *Simulator {
	if cfg.T <= 0 {
		cfg.T = 300
	}
	return &Simulator{cfg: cfg, sources: make(map[string]*srcState)}
}

func (s *Simulator) state(src string) *srcState {
	st, ok := s.sources[src]
	if !ok {
		st = &srcState{
			lastReq: make(map[string]int64),
			pred:    make(map[string]*predInstance),
		}
		if s.cfg.RPVTimeout > 0 {
			st.rpv = core.NewRPVList(s.cfg.RPVTimeout)
		}
		s.sources[src] = st
	}
	return st
}

// Step replays one request.
func (s *Simulator) Step(rec trace.Record) {
	st := s.state(rec.Client)
	now := rec.Time
	url := rec.URL
	s.res.Requests++

	// 1. Prediction (recall) check against live piggybacked predictions.
	predicted := false
	if pi, ok := st.pred[url]; ok {
		if now <= pi.expiry {
			predicted = true
			if !pi.fulfilled {
				pi.fulfilled = true
				s.res.FulfilledPredictions++
				s.res.FulfilledBytes += pi.size
			}
		} else {
			s.finish(st, url, pi)
		}
	}
	if predicted {
		s.res.Predicted++
	}

	// 2. Update-fraction bookkeeping against the previous occurrence.
	if prev, ok := st.lastReq[url]; ok {
		age := now - prev
		if age <= s.cfg.T {
			s.res.PrevWithinT++
		}
		if age <= cacheWindow {
			s.res.PrevWithinC++
			if predicted {
				s.res.UpdateEvents++
				if age > s.cfg.T {
					s.res.UpdatedTC++
				}
			}
		}
	}
	st.lastReq[url] = now
	s.res.ResponseBytes += rec.Size

	// 3. The server observes the request (maintains online volumes).
	elem := core.Element{URL: url, Size: rec.Size, LastModified: rec.LastModified}
	s.cfg.Provider.Observe(core.Access{Source: rec.Client, Time: now, Element: elem})

	// 4. The response carries a piggyback, subject to the proxy filter
	// and its RPV list.
	f := s.cfg.BaseFilter
	if st.rpv != nil {
		f.RPV = st.rpv.Snapshot(now)
	}
	msg, ok := s.cfg.Provider.Piggyback(url, now, f)
	if !ok {
		return
	}
	s.res.PiggybackMessages++
	s.res.PiggybackElements += len(msg.Elements)
	s.res.PiggybackBytes += int64(msg.WireBytes())
	if st.rpv != nil {
		st.rpv.Note(msg.Volume, now)
	}
	for _, e := range msg.Elements {
		s.predict(st, e.URL, e.Size, now)
	}
}

// predict records a piggybacked element for the source: a new prediction
// instance, or an extension of the live one (single-prediction counting).
func (s *Simulator) predict(st *srcState, url string, size, now int64) {
	if pi, ok := st.pred[url]; ok {
		if now <= pi.expiry {
			pi.expiry = now + s.cfg.T
			return
		}
		s.finish(st, url, pi)
	}
	st.pred[url] = &predInstance{expiry: now + s.cfg.T, size: size}
}

// finish closes an expired prediction instance.
func (s *Simulator) finish(st *srcState, url string, pi *predInstance) {
	s.res.TotalPredictions++
	if !pi.fulfilled {
		s.res.FutileBytes += pi.size
	}
	delete(st.pred, url)
}

// Run replays an entire log (which must be sorted by time) and returns the
// final result.
func (s *Simulator) Run(log trace.Log) Result {
	for i := range log {
		s.Step(log[i])
	}
	return s.Finish()
}

// Finish closes the remaining live prediction instances (instances enter
// TotalPredictions only when they close) and returns the result.
func (s *Simulator) Finish() Result {
	for _, st := range s.sources {
		for _, pi := range st.pred {
			s.res.TotalPredictions++
			if !pi.fulfilled {
				s.res.FutileBytes += pi.size
			}
		}
		st.pred = make(map[string]*predInstance)
	}
	return s.res
}

// Result returns the metrics accumulated so far without flushing.
func (s *Simulator) Result() Result { return s.res }

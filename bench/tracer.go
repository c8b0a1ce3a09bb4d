package main

import (
	"bufio"
	"context"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"piggyback/internal/cache"
	"piggyback/internal/core"
	"piggyback/internal/httpwire"
)

// spanHeader carries the root span's index from the driver to the proxy
// handler decorator. The layers below never see it.
const spanHeader = "X-Bench-Span"

type spanName uint8

const (
	spClient     spanName = iota // root: one DoContext call of the driver
	spBackground                 // root: one prefetch drain
	spProxyServe                 // proxy.ServeWire
	spCacheLookup
	spCachePut
	spCacheApply
	spCacheOther     // Freshen, Contains, PeekView, Delete, Pin, Hint
	spOriginExchange // origin handler including the injected delay
	spServerServe    // server.ServeWire alone
	spCoreObserve
	spCorePiggyback
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.request", "proxy.background", "proxy.serve",
	"cache.lookup", "cache.put", "cache.apply_piggyback", "cache.other",
	"origin.exchange", "server.serve", "core.observe", "core.piggyback",
}

// Outcomes of a client.request or proxy.serve span, from X-Cache.
const (
	outNone uint8 = iota
	outHit
	outMiss
	outOther
)

var outcomeNames = [...]string{"", "hit", "miss", "other"}

// span is one timed call. Times are nanoseconds since the tracer's epoch;
// parent is an index into the same slice, -1 for a root.
type span struct {
	start, end int64
	parent     int32
	req        uint32
	name       spanName
	outcome    uint8
}

// tracer records spans into memory allocated before the run. Layers that
// receive the span header (the proxy handler) are parented by it; the rest
// (cache, server, core) are parented by key to the span that is open for
// that key. A nil *tracer records nothing.
type tracer struct {
	epoch time.Time
	spans []span
	n     atomic.Int64

	mu sync.Mutex
	// openServe maps a cache key to the proxy.serve (or proxy.background)
	// span working on it; openServer maps an origin path to its open
	// server.serve span.
	openServe  map[string]int32
	openServer map[string]int32
	// lastUpstream is the proxy.serve span whose origin exchange finished
	// most recently: the ApplyPiggyback calls that follow an exchange name
	// other keys than the request's, and are attributed to it.
	lastUpstream int32
	background   int32
	bgKeys       []string
}

func newTracer(capacity int) *tracer {
	return &tracer{
		epoch: time.Now(), spans: make([]span, capacity),
		openServe: make(map[string]int32), openServer: make(map[string]int32),
		lastUpstream: -1, background: -1,
	}
}

func (t *tracer) clock() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index, or -1 when the tracer is nil or
// its memory is used up.
func (t *tracer) begin(name spanName, parent int32, req uint32) int32 {
	if t == nil {
		return -1
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.n.Store(int64(len(t.spans)))
		return -1
	}
	if parent >= 0 && req == 0 {
		req = t.spans[parent].req
	}
	t.spans[i] = span{start: t.clock(), parent: parent, req: req, name: name}
	return int32(i)
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	atomic.StoreInt64(&t.spans[id].end, t.clock())
}

// full reports that the memory is nearly used up: a traced window ends there,
// so that every request in it was traced. The margin lets requests already
// in flight finish their spans.
func (t *tracer) full() bool {
	return t != nil && t.n.Load() > int64(len(t.spans))-64
}

// recorded returns the spans written so far.
func (t *tracer) recorded() []span { return t.spans[:t.n.Load()] }

// parentFor finds the open span a keyed call belongs to.
func (t *tracer) parentFor(key string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.openServe[key]; ok {
		return id
	}
	if id := t.lastUpstream; id >= 0 && atomic.LoadInt64(&t.spans[id].end) == 0 {
		return id
	}
	return t.background
}

func (t *tracer) beginBackground() int32 {
	id := t.begin(spBackground, -1, 0)
	if id >= 0 {
		t.mu.Lock()
		t.background = id
		t.mu.Unlock()
	}
	return id
}

func (t *tracer) endBackground(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.end(id)
	t.mu.Lock()
	t.background = -1
	for _, k := range t.bgKeys {
		delete(t.openServe, k)
	}
	t.bgKeys = t.bgKeys[:0]
	t.mu.Unlock()
}

// beginOrigin opens the origin.exchange and server.serve spans for a request
// arriving at the origin. A key no proxy.serve span is open for was asked for
// by a prefetch: it is filed under the running drain, and so is the cache
// Put that follows.
func (t *tracer) beginOrigin(req *httpwire.Request) (exchange, serve int32) {
	if t == nil {
		return -1, -1
	}
	key := req.Header.Get("Host") + req.Path
	t.mu.Lock()
	parent, ok := t.openServe[key]
	if !ok {
		parent = t.background
		if parent >= 0 {
			t.openServe[key] = parent
			t.bgKeys = append(t.bgKeys, key)
		}
	}
	t.mu.Unlock()
	exchange = t.begin(spOriginExchange, parent, 0)
	serve = t.begin(spServerServe, exchange, 0)
	if serve >= 0 {
		t.mu.Lock()
		t.openServer[req.Path] = serve
		t.mu.Unlock()
	}
	return exchange, serve
}

func (t *tracer) endOrigin(exchange int32, path string) {
	if t == nil || exchange < 0 {
		return
	}
	t.end(exchange)
	t.mu.Lock()
	delete(t.openServer, path)
	if p := t.spans[exchange].parent; p >= 0 && t.spans[p].name == spProxyServe {
		t.lastUpstream = p
	}
	t.mu.Unlock()
}

func (t *tracer) serverSpanFor(path string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.openServer[path]; ok {
		return id
	}
	return -1
}

func outcomeOf(resp *httpwire.Response) uint8 {
	switch resp.Header.Get("X-Cache") {
	case "HIT":
		return outHit
	case "MISS":
		return outMiss
	}
	return outOther
}

// tracedProxy times proxy.ServeWire and announces, for its duration, which
// cache key the request works on.
type tracedProxy struct {
	next httpwire.Handler
	t    *tracer
}

func (p *tracedProxy) ServeWire(ctx context.Context, req *httpwire.Request) *httpwire.Response {
	root, err := strconv.Atoi(req.Header.Get(spanHeader))
	if err != nil {
		return p.next.ServeWire(ctx, req)
	}
	key := req.Header.Get("Host") + req.Path
	id := p.t.begin(spProxyServe, int32(root), 0)
	p.t.mu.Lock()
	p.t.openServe[key] = id
	p.t.mu.Unlock()
	resp := p.next.ServeWire(ctx, req)
	p.t.end(id)
	p.t.mu.Lock()
	if p.t.openServe[key] == id {
		delete(p.t.openServe, key)
	}
	p.t.mu.Unlock()
	if id >= 0 {
		p.t.spans[id].outcome = outcomeOf(resp)
	}
	return resp
}

// tracedStore times every data-path call into the cache.Store and counts
// them. The first lookupSamples Lookup keys are kept for the isolated replay.
type tracedStore struct {
	cache.Store
	t       *tracer
	calls   atomic.Int64
	lookups atomic.Int64
	keys    [lookupSamples]string
}

const lookupSamples = 10000

func (s *tracedStore) span(name spanName, key string) int32 {
	s.calls.Add(1)
	return s.t.begin(name, s.t.parentFor(key), 0)
}

func (s *tracedStore) Lookup(url string, now int64) (cache.View, bool) {
	if i := s.lookups.Add(1) - 1; i < lookupSamples {
		s.keys[i] = url
	}
	id := s.span(spCacheLookup, url)
	v, ok := s.Store.Lookup(url, now)
	s.t.end(id)
	return v, ok
}

func (s *tracedStore) Put(e cache.Entry, now int64) []string {
	id := s.span(spCachePut, e.URL)
	ev := s.Store.Put(e, now)
	s.t.end(id)
	return ev
}

func (s *tracedStore) ApplyPiggyback(url string, lastModified, freshenTo, pinUntil, now int64) cache.PiggybackOutcome {
	id := s.span(spCacheApply, url)
	out := s.Store.ApplyPiggyback(url, lastModified, freshenTo, pinUntil, now)
	s.t.end(id)
	return out
}

func (s *tracedStore) Freshen(url string, expires int64) bool {
	id := s.span(spCacheOther, url)
	ok := s.Store.Freshen(url, expires)
	s.t.end(id)
	return ok
}

func (s *tracedStore) Contains(url string) bool {
	id := s.span(spCacheOther, url)
	ok := s.Store.Contains(url)
	s.t.end(id)
	return ok
}

func (s *tracedStore) PeekView(url string) (cache.View, bool) {
	id := s.span(spCacheOther, url)
	v, ok := s.Store.PeekView(url)
	s.t.end(id)
	return v, ok
}

func (s *tracedStore) Delete(url string) bool {
	id := s.span(spCacheOther, url)
	ok := s.Store.Delete(url)
	s.t.end(id)
	return ok
}

func (s *tracedStore) Pin(url string, until, now int64) bool {
	id := s.span(spCacheOther, url)
	ok := s.Store.Pin(url, until, now)
	s.t.end(id)
	return ok
}

func (s *tracedStore) Hint(url string, until, now int64) bool {
	id := s.span(spCacheOther, url)
	ok := s.Store.Hint(url, until, now)
	s.t.end(id)
	return ok
}

// tracedProvider times the origin's calls into the volume engine.
type tracedProvider struct {
	core.Provider
	t *tracer
}

func (p *tracedProvider) Observe(a core.Access) {
	id := p.t.begin(spCoreObserve, p.t.serverSpanFor(a.Element.URL), 0)
	p.Provider.Observe(a)
	p.t.end(id)
}

func (p *tracedProvider) Piggyback(url string, now int64, f core.Filter) (core.Message, bool) {
	id := p.t.begin(spCorePiggyback, p.t.serverSpanFor(url), 0)
	m, ok := p.Provider.Piggyback(url, now, f)
	p.t.end(id)
	return m, ok
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its child spans cover. Children may overlap one another
// (two origin exchanges under one drain) and are clipped to the parent, so
// covered time is the length of the union of the clipped child intervals.
// A span that never ended has self time 0.
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	children := make(map[int32][]iv)
	for i := range spans {
		s := &spans[i]
		if s.parent >= 0 && s.end > 0 {
			children[s.parent] = append(children[s.parent], iv{s.start, s.end})
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.end == 0 {
			continue
		}
		self[i] = s.end - s.start
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
		covered := s.start
		for _, k := range kids {
			lo, hi := max(k.lo, covered), min(k.hi, s.end)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for i := range spans {
		s := &spans[i]
		line = append(line[:0], `{"id":`...)
		line = strconv.AppendInt(line, int64(i), 10)
		line = append(line, `,"name":"`...)
		line = append(line, spanNames[s.name]...)
		line = append(line, `","start_ns":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendInt(line, int64(s.parent), 10)
		line = append(line, `,"req":`...)
		line = strconv.AppendUint(line, uint64(s.req), 10)
		line = append(line, `,"outcome":"`...)
		line = append(line, outcomeNames[s.outcome]...)
		line = append(line, '"')
		line = append(line, "}\n"...)
		if _, err := bw.Write(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

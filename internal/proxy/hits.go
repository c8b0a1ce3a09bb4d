package proxy

import (
	"container/heap"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// maxPendingHits bounds the cache-hit paths buffered per host between
// upstream requests (the Piggy-Hits report, §5 future work). Beyond the
// bound, further hits are dropped and counted (proxy.hits_dropped) rather
// than silently discarded.
const maxPendingHits = 32

// maxListed bounds the cached paths one upstream request asks the origin to
// validate (Piggy-Validate: piggyback cache validation, Krishnamurthy &
// Wills, USITS '97). An answer renews a whole list at one instant, so the
// list comes due again together; the bound has to drain such a cohort
// before its paths expire unlisted.
const maxListed = 64

// maxIndexed caps the keys held in the expiry indexes of all hosts
// together. Past it, a newly cached key is not indexed
// (proxy.expiry_index_full); its next read after expiry validates it.
const maxIndexed = 1 << 16

// hitStripes is the number of lock stripes in hostHits (power of two).
// Hits on hosts in different stripes never contend, so hit reporting stays
// off the fresh-hit fast path's critical section.
const hitStripes = 16

// hostHits is the striped per-host table of what the proxy tells an origin
// on its next request: the cache hits to report and the cached entries
// about to expire, to ask about.
type hostHits struct {
	stripes [hitStripes]hitStripe
	// indexed counts the live keys of every host's expiry index.
	indexed atomic.Int64
}

type hitStripe struct {
	mu sync.Mutex
	m  map[string]*hostState
}

// hostState is one host's entry: the pending hits, and the expiry index —
// a min-heap on expiry plus the live expiry of each indexed path. A heap
// item whose expiry is no longer its path's live one is superseded and is
// skipped when popped.
type hostState struct {
	hits []string
	live map[string]liveExpiry
	heap expiryHeap
}

// liveExpiry is the live state of one indexed path.
type liveExpiry struct {
	expires int64
	// ahead is set when that expiry came from the answer to a listing of
	// the path, and cleared by the first hit report naming it.
	ahead bool
}

func newHostHits() *hostHits {
	h := &hostHits{}
	for i := range h.stripes {
		h.stripes[i].m = make(map[string]*hostState)
	}
	return h
}

func (h *hostHits) stripe(host string) *hitStripe {
	// FNV-1a, as in the cache's shard selector.
	v := uint32(2166136261)
	for i := 0; i < len(host); i++ {
		v ^= uint32(host[i])
		v *= 16777619
	}
	return &h.stripes[v&(hitStripes-1)]
}

// state returns host's entry, creating it. Caller holds st.mu.
func (st *hitStripe) state(host string) *hostState {
	hs := st.m[host]
	if hs == nil {
		hs = &hostState{live: make(map[string]liveExpiry)}
		st.m[host] = hs
	}
	return hs
}

// add buffers one cache-hit path for host. It reports false when the
// per-host bound is full and the hit was dropped.
func (h *hostHits) add(host, path string) bool {
	st := h.stripe(host)
	st.mu.Lock()
	defer st.mu.Unlock()
	hs := st.state(host)
	if len(hs.hits) >= maxPendingHits {
		return false
	}
	hs.hits = append(hs.hits, path)
	return true
}

// note records the expiry the cache just gave host's path; ahead says the
// answer to a listing gave it. It reports false when the path was not
// indexed because the index is at maxIndexed keys.
func (h *hostHits) note(host, path string, expires int64, ahead bool) bool {
	st := h.stripe(host)
	st.mu.Lock()
	defer st.mu.Unlock()
	hs := st.state(host)
	cur, ok := hs.live[path]
	if !ok && h.indexed.Add(1) > maxIndexed {
		h.indexed.Add(-1)
		st.release(host, hs)
		return false
	}
	hs.live[path] = liveExpiry{expires: expires, ahead: ahead}
	if !ok || cur.expires != expires {
		heap.Push(&hs.heap, expiryItem{path: path, expires: expires})
		hs.compact()
	}
	return true
}

// drop removes host's path from the expiry index: its cached copy is gone.
func (h *hostHits) drop(host, path string) {
	st := h.stripe(host)
	st.mu.Lock()
	defer st.mu.Unlock()
	hs := st.m[host]
	if hs == nil {
		return
	}
	if _, ok := hs.live[path]; ok {
		delete(hs.live, path)
		h.indexed.Add(-1)
		hs.compact()
	}
	st.release(host, hs)
}

// listing is one path take removed from host's expiry index to list, with
// the live state putBack restores when the request cannot carry it.
type listing struct {
	path string
	liveExpiry
}

// take drains what host's next request carries, in one critical section:
// the buffered hit paths, and the up to maxListed indexed paths whose
// expiry falls soonest in (now, until], in path order, so that front coding
// shares their prefixes. self (the request's own path) and the hit paths
// are not listed: the request answers them anyway. A listed path leaves the
// index until an answer refreshes it or putBack returns it; a path found
// already expired leaves it for good, and its next read validates. useful
// counts the drained hits on paths whose expiry the answer to a listing
// gave; expired counts the paths that left unlisted.
func (h *hostHits) take(host, self string, now, until int64) (hits []string, listed []listing, useful, expired int) {
	st := h.stripe(host)
	st.mu.Lock()
	defer st.mu.Unlock()
	hs := st.m[host]
	if hs == nil {
		return nil, nil, 0, 0
	}
	hits, hs.hits = hs.hits, nil
	for _, path := range hits {
		if e, ok := hs.live[path]; ok && e.ahead {
			useful++
			e.ahead = false
			hs.live[path] = e
		}
	}
	var skipped []expiryItem
	for len(hs.heap) > 0 && len(listed) < maxListed && hs.heap[0].expires <= until {
		it := heap.Pop(&hs.heap).(expiryItem)
		e, ok := hs.live[it.path]
		if !ok || e.expires != it.expires {
			continue // superseded
		}
		if it.path == self || slices.Contains(hits, it.path) {
			skipped = append(skipped, it)
			continue
		}
		delete(hs.live, it.path)
		h.indexed.Add(-1)
		if it.expires > now {
			listed = append(listed, listing{it.path, e})
		} else {
			expired++
		}
	}
	for _, it := range skipped {
		heap.Push(&hs.heap, it)
	}
	hs.compact()
	st.release(host, hs)
	slices.SortFunc(listed, func(a, b listing) int { return strings.Compare(a.path, b.path) })
	return hits, listed, useful, expired
}

// putBack returns to host's expiry index, with the live state take found,
// each listed path missing from wrote (the paths the request carries, in
// the same order): what the header budget left out is listed by a later
// request, not lost. A path SetPaths cannot write at all (one holding a
// comma, say) goes back as well, and leaves once it has expired. A path
// some step indexed anew meanwhile keeps that step's expiry. It reports
// how many paths the maxIndexed cap refused.
func (h *hostHits) putBack(host string, listed []listing, wrote []string) (refused int) {
	if len(wrote) == len(listed) {
		return 0
	}
	st := h.stripe(host)
	st.mu.Lock()
	defer st.mu.Unlock()
	hs := st.state(host)
	for _, l := range listed {
		if len(wrote) > 0 && wrote[0] == l.path {
			wrote = wrote[1:]
			continue
		}
		if _, ok := hs.live[l.path]; ok {
			continue
		}
		if h.indexed.Add(1) > maxIndexed {
			h.indexed.Add(-1)
			refused++
			continue
		}
		hs.live[l.path] = l.liveExpiry
		heap.Push(&hs.heap, expiryItem{path: l.path, expires: l.expires})
	}
	hs.compact()
	st.release(host, hs)
	return refused
}

// release deletes host's entry once it holds nothing. Caller holds st.mu.
func (st *hitStripe) release(host string, hs *hostState) {
	if len(hs.hits) == 0 && len(hs.live) == 0 {
		delete(st.m, host)
	}
}

// compact rebuilds the heap from the live paths once superseded items
// outnumber them, so the heap never holds more than twice the live keys.
func (hs *hostState) compact() {
	if len(hs.heap) <= 2*len(hs.live) {
		return
	}
	h := make(expiryHeap, 0, len(hs.live))
	for path, e := range hs.live {
		h = append(h, expiryItem{path: path, expires: e.expires})
	}
	heap.Init(&h)
	hs.heap = h
}

// expiryItem is one heap item: path was indexed to expire at expires.
type expiryItem struct {
	path    string
	expires int64
}

// expiryHeap is a min-heap on expiry.
type expiryHeap []expiryItem

func (h expiryHeap) Len() int           { return len(h) }
func (h expiryHeap) Less(i, j int) bool { return h[i].expires < h[j].expires }
func (h expiryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *expiryHeap) Push(x any)        { *h = append(*h, x.(expiryItem)) }
func (h *expiryHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

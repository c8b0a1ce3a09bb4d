package proxy

import (
	"container/heap"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"piggyback/internal/core"
	"piggyback/internal/httpwire"
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

// hostStripes is the number of lock stripes in hostTable (power of two).
// Hosts in different stripes never contend, so hit reporting stays off the
// fresh-hit fast path's critical section.
const hostStripes = 16

// hostTable is the striped per-host table of what the proxy tells an
// origin host on its next request: the RPV list that paces its
// piggybacks, the cache hits to report, the cached entries about to
// expire, to ask about, and the token of the last change list. It is the
// paper's RPV hash table keyed on the server (§2.2), with the hit report,
// the validation list and the token beside each list, so one request
// reads all four under one stripe lock.
type hostTable struct {
	stripes [hostStripes]hostStripe
	// rpvTimeout is the lifetime of an RPV entry, in seconds.
	rpvTimeout int64
	// indexed counts the live keys of every host's expiry index.
	indexed atomic.Int64
}

type hostStripe struct {
	mu sync.Mutex
	m  map[string]*hostRecord
}

// hostRecord is one host's entry: its RPV list (nil when the last request
// found no live entry), the pending hits, the expiry index — a min-heap on
// expiry plus the live expiry of each indexed path — and the token of the
// host's last change list ("" before the first). A heap item whose expiry
// is no longer its path's live one is superseded and is skipped when
// popped.
type hostRecord struct {
	rpv   *core.RPVList
	hits  []string
	live  map[string]liveExpiry
	heap  expiryHeap
	since string
}

// liveExpiry is the live state of one indexed path.
type liveExpiry struct {
	expires int64
	// ahead is set when that expiry came from the answer to a listing of
	// the path, and cleared by the first hit report naming it.
	ahead bool
}

// newHostTable returns a table whose RPV entries live rpvTimeout seconds.
func newHostTable(rpvTimeout int64) *hostTable {
	h := &hostTable{rpvTimeout: rpvTimeout}
	for i := range h.stripes {
		h.stripes[i].m = make(map[string]*hostRecord)
	}
	return h
}

func (h *hostTable) stripe(host string) *hostStripe {
	// FNV-1a, as in the cache's shard selector.
	v := uint32(2166136261)
	for i := 0; i < len(host); i++ {
		v ^= uint32(host[i])
		v *= 16777619
	}
	return &h.stripes[v&(hostStripes-1)]
}

// record returns host's entry, creating it. Caller holds st.mu.
func (st *hostStripe) record(host string) *hostRecord {
	hr := st.m[host]
	if hr == nil {
		hr = &hostRecord{live: make(map[string]liveExpiry)}
		st.m[host] = hr
	}
	return hr
}

// noteVolume records on host's RPV list that a piggyback for volume id
// arrived at now.
func (h *hostTable) noteVolume(host string, id core.VolumeID, now int64) {
	st := h.stripe(host)
	st.mu.Lock()
	defer st.mu.Unlock()
	hr := st.record(host)
	if hr.rpv == nil {
		hr.rpv = core.NewRPVList(h.rpvTimeout)
	}
	hr.rpv.Note(id, now)
}

// noteSince keeps token as host's change-list token. The last answer wins:
// an older token overwriting a newer one only has changes sent again.
func (h *hostTable) noteSince(host, token string) {
	st := h.stripe(host)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.record(host).since = token
}

// add buffers one cache-hit path for host. It reports false when the
// per-host bound is full and the hit was dropped.
func (h *hostTable) add(host, path string) bool {
	st := h.stripe(host)
	st.mu.Lock()
	defer st.mu.Unlock()
	hr := st.record(host)
	if len(hr.hits) >= maxPendingHits {
		return false
	}
	hr.hits = append(hr.hits, path)
	return true
}

// note records the expiry the cache just gave host's path; ahead says the
// answer to a listing gave it. It reports false when the path was not
// indexed because the index is at maxIndexed keys.
func (h *hostTable) note(host, path string, expires int64, ahead bool) bool {
	st := h.stripe(host)
	st.mu.Lock()
	defer st.mu.Unlock()
	hr := st.record(host)
	cur, ok := hr.live[path]
	if !ok && h.indexed.Add(1) > maxIndexed {
		h.indexed.Add(-1)
		st.release(host, hr)
		return false
	}
	hr.live[path] = liveExpiry{expires: expires, ahead: ahead}
	if !ok || cur.expires != expires {
		heap.Push(&hr.heap, expiryItem{path: path, expires: expires})
		hr.compact()
	}
	return true
}

// drop removes host's path from the expiry index: its cached copy is gone.
func (h *hostTable) drop(host, path string) {
	st := h.stripe(host)
	st.mu.Lock()
	defer st.mu.Unlock()
	hr := st.m[host]
	if hr == nil {
		return
	}
	if _, ok := hr.live[path]; ok {
		delete(hr.live, path)
		h.indexed.Add(-1)
		hr.compact()
	}
	st.release(host, hr)
}

// listing is one path take removed from host's expiry index to list, with
// the live state putBack restores when the request cannot carry it.
type listing struct {
	path string
	liveExpiry
}

// owed is what take drains for one request to a host: the live volume ids
// of its RPV list (the filter's rpv attribute), the buffered hit paths,
// the paths to list, and the change-list token (httpwire.NoToken when
// there is none). useful counts the drained hits on paths whose expiry the
// answer to a listing gave; expired counts the paths that left the index
// unlisted.
type owed struct {
	rpv             []core.VolumeID
	hits            []string
	listed          []listing
	since           string
	useful, expired int
}

// take drains what host's next request carries, in one critical section.
// It lists the up to maxListed indexed paths whose expiry falls soonest in
// (now, until], in path order, so that front coding shares their prefixes.
// self (the request's own path) and the hit paths are not listed: the
// request answers them anyway. A listed path leaves the index until an
// answer refreshes it or putBack returns it; a path found already expired
// leaves it for good, and its next read validates.
func (h *hostTable) take(host, self string, now, until int64) (o owed) {
	o.since = httpwire.NoToken
	st := h.stripe(host)
	st.mu.Lock()
	defer st.mu.Unlock()
	hr := st.m[host]
	if hr == nil {
		return o
	}
	if hr.since != "" {
		o.since = hr.since
	}
	if hr.rpv != nil {
		if o.rpv = hr.rpv.Snapshot(now); o.rpv == nil {
			hr.rpv = nil
		}
	}
	o.hits, hr.hits = hr.hits, nil
	for _, path := range o.hits {
		if e, ok := hr.live[path]; ok && e.ahead {
			o.useful++
			e.ahead = false
			hr.live[path] = e
		}
	}
	var skipped []expiryItem
	for len(hr.heap) > 0 && len(o.listed) < maxListed && hr.heap[0].expires <= until {
		it := heap.Pop(&hr.heap).(expiryItem)
		e, ok := hr.live[it.path]
		if !ok || e.expires != it.expires {
			continue // superseded
		}
		if it.path == self || slices.Contains(o.hits, it.path) {
			skipped = append(skipped, it)
			continue
		}
		delete(hr.live, it.path)
		h.indexed.Add(-1)
		if it.expires > now {
			o.listed = append(o.listed, listing{it.path, e})
		} else {
			o.expired++
		}
	}
	for _, it := range skipped {
		heap.Push(&hr.heap, it)
	}
	hr.compact()
	st.release(host, hr)
	slices.SortFunc(o.listed, func(a, b listing) int { return strings.Compare(a.path, b.path) })
	return o
}

// putBackHits returns to host's pending report the drained hits the
// request did not carry (wrote is what SetPaths wrote, in wire order: hits
// last first), ahead of any hit buffered since: what the header budget
// left out is reported by a later request. It reports how many it dropped
// instead: the hits no list can carry (httpwire.Listable), and those past
// maxPendingHits.
func (h *hostTable) putBackHits(host string, hits, wrote []string) (dropped int) {
	if len(wrote) == len(hits) {
		return 0
	}
	var back []string
	for i := len(hits) - 1; i >= 0; i-- {
		switch {
		case len(wrote) > 0 && wrote[0] == hits[i]:
			wrote = wrote[1:]
		case httpwire.Listable(hits[i]):
			back = append(back, hits[i])
		default:
			dropped++
		}
	}
	if len(back) == 0 {
		return dropped
	}
	slices.Reverse(back)
	st := h.stripe(host)
	st.mu.Lock()
	defer st.mu.Unlock()
	hr := st.record(host)
	if room := maxPendingHits - len(hr.hits); len(back) > room {
		dropped += len(back) - max(room, 0)
		back = back[len(back)-max(room, 0):]
	}
	hr.hits = append(back, hr.hits...)
	return dropped
}

// putBack returns to host's expiry index, with the live state take found,
// each listed path missing from wrote (the paths the request carries, in
// the same order): what the header budget left out is listed by a later
// request, not lost. A path SetPaths cannot write at all (one holding a
// comma, say) goes back as well, and leaves once it has expired. A path
// some step indexed anew meanwhile keeps that step's expiry. It reports
// how many paths the maxIndexed cap refused.
func (h *hostTable) putBack(host string, listed []listing, wrote []string) (refused int) {
	if len(wrote) == len(listed) {
		return 0
	}
	st := h.stripe(host)
	st.mu.Lock()
	defer st.mu.Unlock()
	hr := st.record(host)
	for _, l := range listed {
		if len(wrote) > 0 && wrote[0] == l.path {
			wrote = wrote[1:]
			continue
		}
		if _, ok := hr.live[l.path]; ok {
			continue
		}
		if h.indexed.Add(1) > maxIndexed {
			h.indexed.Add(-1)
			refused++
			continue
		}
		hr.live[l.path] = l.liveExpiry
		heap.Push(&hr.heap, expiryItem{path: l.path, expires: l.expires})
	}
	hr.compact()
	st.release(host, hr)
	return refused
}

// release deletes host's entry once it holds nothing: no pending hit, no
// indexed path, no RPV list — take drops a list it finds without a live
// entry — and no token. Caller holds st.mu.
func (st *hostStripe) release(host string, hr *hostRecord) {
	if hr.rpv == nil && len(hr.hits) == 0 && len(hr.live) == 0 && hr.since == "" {
		delete(st.m, host)
	}
}

// compact rebuilds the heap from the live paths once superseded items
// outnumber them, so the heap never holds more than twice the live keys.
func (hr *hostRecord) compact() {
	if len(hr.heap) <= 2*len(hr.live) {
		return
	}
	h := make(expiryHeap, 0, len(hr.live))
	for path, e := range hr.live {
		h = append(h, expiryItem{path: path, expires: e.expires})
	}
	heap.Init(&h)
	hr.heap = h
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

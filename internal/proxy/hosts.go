package proxy

import (
	"slices"
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

// maxNamed is how many of the changes recent lists named a host's record
// keeps at least, for the bodies in flight while those lists were applied
// (see current). It keeps at most twice as many, trimming in bulk.
const maxNamed = 1024

// hostStripes is the number of lock stripes in hostTable (power of two).
// Hosts in different stripes never contend, so hit reporting stays off the
// fresh-hit fast path's critical section.
const hostStripes = 16

// hostTable is the striped per-host table of what the proxy tells an
// origin host on its next request, and what it last heard from it: the RPV
// list that paces its piggybacks, the cache hits to report, and the token
// and watermark of its change lists. It is the paper's RPV hash table keyed
// on the server (§2.2), with the hit report and the change-list state
// beside each list, so one request reads all of them under one stripe lock.
type hostTable struct {
	stripes [hostStripes]hostStripe
	// rpvTimeout is the lifetime of an RPV entry, in seconds.
	rpvTimeout int64
	// links numbers the links of every host's invalidation chain: each
	// change list that named a change, and each break, applied.
	links atomic.Uint64
}

type hostStripe struct {
	mu sync.Mutex
	m  map[string]*hostRecord
}

// hostRecord is one host's entry: its RPV list (nil when the last request
// found no live entry), the pending hits, and the state of its change
// lists. since is the token of the last one ("" before the first); heard
// is the send time of the request whose complete list set since, and 0
// when a capped list or a break set it: every change the origin made
// before heard has been applied to every covered copy (see lookup). link
// is the last link of the host's chain, broke the link of its last break;
// named holds the changes the lists on the latest links named, oldest
// first, and those on links up to floor are no longer all there.
type hostRecord struct {
	rpv   *core.RPVList
	hits  []string
	since string
	heard int64
	link  uint64
	broke uint64
	named []namedChange
	floor uint64
}

// namedChange is a change a list on link named: path's version lm.
type namedChange struct {
	link uint64
	path string
	lm   int64
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
		hr = &hostRecord{}
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

// noteSince keeps token as host's change-list token, and heard as its
// watermark: the send time of the request a complete list answered, or 0.
// The last answer wins, and the two move together: an older answer landing
// last sets both back, which only has changes sent again.
func (h *hostTable) noteSince(host, token string, heard int64) {
	st := h.stripe(host)
	st.mu.Lock()
	defer st.mu.Unlock()
	hr := st.record(host)
	hr.since, hr.heard = token, heard
}

// unheard drops host's watermark, keeping its token: an answer to the
// token came back without a change list.
func (h *hostTable) unheard(host string) {
	st := h.stripe(host)
	st.mu.Lock()
	defer st.mu.Unlock()
	if hr := st.m[host]; hr != nil {
		hr.heard = 0
	}
}

// chain adds a link to host's chain before a change list naming changes,
// or a break, is applied, and keeps the changes the list names: a body in
// flight meanwhile checks them (current). A break also uncovers every copy
// admitted before it.
func (h *hostTable) chain(host string, changes []core.Element, brk bool) {
	st := h.stripe(host)
	st.mu.Lock()
	defer st.mu.Unlock()
	hr := st.record(host)
	hr.link = h.links.Add(1)
	if brk {
		hr.broke = hr.link
	}
	for _, el := range changes {
		hr.named = append(hr.named, namedChange{hr.link, el.URL, el.LastModified})
	}
	if len(hr.named) > 2*maxNamed {
		over := len(hr.named) - maxNamed
		hr.floor = hr.named[over-1].link
		hr.named = slices.Delete(hr.named, 0, over)
	}
}

// current reports whether version lm of host's path, fetched by a request
// sent when link was the host's last, missed no change applied to the host
// while it was in flight: no break came since, and no change list named a
// newer version of path — such a list found no copy to make a delta base
// of. Zero never does.
func (h *hostTable) current(host, path string, lm int64, link uint64) bool {
	if link == 0 {
		return false
	}
	st := h.stripe(host)
	st.mu.Lock()
	defer st.mu.Unlock()
	hr := st.m[host]
	if hr == nil || hr.broke > link || hr.floor > link {
		return false
	}
	for i := len(hr.named) - 1; i >= 0 && hr.named[i].link > link; i-- {
		if hr.named[i].path == path && hr.named[i].lm > lm {
			return false
		}
	}
	return true
}

// lastLink returns host's last link, 0 when it has none.
func (h *hostTable) lastLink(host string) uint64 {
	st := h.stripe(host)
	st.mu.Lock()
	defer st.mu.Unlock()
	if hr := st.m[host]; hr != nil {
		return hr.link
	}
	return 0
}

// covers reports whether host's watermark keeps a copy admitted on link
// fresh at the read whose freshness interval reaches back to after: the
// host heard a complete list on a request sent after that, and the copy
// was admitted on a link no break has followed.
func (h *hostTable) covers(host string, link uint64, after int64) bool {
	st := h.stripe(host)
	st.mu.Lock()
	defer st.mu.Unlock()
	hr := st.m[host]
	return hr != nil && hr.heard > after && hr.heard > 0 && link >= hr.broke
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

// owed is what take drains for one request to a host: the live volume ids
// of its RPV list (the filter's rpv attribute), the buffered hit paths, the
// change-list token (httpwire.NoToken when there is none), and the host's
// last link, on which the response's body is admitted.
type owed struct {
	rpv   []core.VolumeID
	hits  []string
	since string
	link  uint64
}

// take drains what host's next request carries, in one critical section.
func (h *hostTable) take(host string, now int64) (o owed) {
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
	o.link = hr.link
	if hr.rpv != nil {
		if o.rpv = hr.rpv.Snapshot(now); o.rpv == nil {
			hr.rpv = nil
		}
	}
	o.hits, hr.hits = hr.hits, nil
	st.release(host, hr)
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

// release deletes host's entry once it holds nothing: no pending hit, no
// RPV list — take drops a list it finds without a live entry — no token
// and no link: a record on which a copy may have been admitted is kept, so
// its breaks are never forgotten. Caller holds st.mu.
func (st *hostStripe) release(host string, hr *hostRecord) {
	if hr.rpv == nil && len(hr.hits) == 0 && hr.since == "" && hr.link == 0 {
		delete(st.m, host)
	}
}

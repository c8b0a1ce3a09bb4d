package proxy

import (
	"container/heap"
	"sync"
)

// FetchItem is one pending fetch with the meta-attributes learned from a
// piggyback element (§4 informed fetching: "shorter files can be fetched
// first").
type FetchItem struct {
	Host string
	URL  string // server-relative path
	Size int64
}

// Key returns the cache key (host-qualified URL).
func (it FetchItem) Key() string { return it.Host + it.URL }

// InformedQueue is a size-prioritized fetch queue: smallest resources
// first, the §4 informed-fetching schedule that minimizes average per-user
// latency on a congested path. It is safe for concurrent use.
type InformedQueue struct {
	mu     sync.Mutex
	h      fetchHeap
	queued map[string]bool
	// maxLen bounds the queue: prefetchQueueLen unless a test sets another.
	maxLen int
}

// prefetchQueueLen bounds an InformedQueue. Overflow drops the largest
// queued item (smallest-first service order means largest items are the
// least likely to be serviced anyway).
const prefetchQueueLen = 1024

// NewInformedQueue returns an empty queue.
func NewInformedQueue() *InformedQueue {
	return &InformedQueue{queued: make(map[string]bool), maxLen: prefetchQueueLen}
}

// Push enqueues an item unless an equal key is already queued.
// It reports whether the item was added.
func (q *InformedQueue) Push(it FetchItem) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.queued[it.Key()] {
		return false
	}
	if len(q.h) >= q.maxLen {
		// Drop the largest queued item to admit the new one — unless
		// the new item is itself the largest.
		li := q.largestIdx()
		if li < 0 || q.h[li].Size <= it.Size {
			return false
		}
		dropped := q.h[li]
		heap.Remove(&q.h, li)
		delete(q.queued, dropped.Key())
	}
	heap.Push(&q.h, it)
	q.queued[it.Key()] = true
	return true
}

func (q *InformedQueue) largestIdx() int {
	// The largest element of a min-heap is among the leaves; a linear
	// scan is fine at this queue's size.
	best := -1
	for i := range q.h {
		if best < 0 || q.h[i].Size > q.h[best].Size {
			best = i
		}
	}
	return best
}

// Pop dequeues the smallest item.
func (q *InformedQueue) Pop() (FetchItem, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.h) == 0 {
		return FetchItem{}, false
	}
	it := heap.Pop(&q.h).(FetchItem)
	delete(q.queued, it.Key())
	return it, true
}

// Len returns the queue length.
func (q *InformedQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.h)
}

// contains reports whether a key is queued.
func (q *InformedQueue) contains(key string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queued[key]
}

type fetchHeap []FetchItem

func (h fetchHeap) Len() int            { return len(h) }
func (h fetchHeap) Less(i, j int) bool  { return h[i].Size < h[j].Size }
func (h fetchHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *fetchHeap) Push(x interface{}) { *h = append(*h, x.(FetchItem)) }
func (h *fetchHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

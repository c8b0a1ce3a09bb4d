package main

import (
	"container/heap"
	"sync"
	"sync/atomic"

	"piggyback/internal/server"
)

// world is the virtual clock shared by the origin and the proxy, and the
// hand that mutates the origin as the clock advances. The clients move it
// forward to each record's timestamp before sending the request.
type world struct {
	clock atomic.Int64

	mu    sync.Mutex
	due   tickHeap
	in    *inputs
	store *server.Store
	mods  atomic.Int64
	// onModify, when set, sees every Store.Modify the world performs.
	onModify func(url string, lastModified int64)
}

// tick is one pending modification: resource res changes at time t.
type tick struct {
	t   int64
	res int32
}

type tickHeap []tick

func (h tickHeap) Len() int { return len(h) }
func (h tickHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].res < h[j].res
}
func (h tickHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *tickHeap) Push(x any)   { *h = append(*h, x.(tick)) }
func (h *tickHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// newWorld loads the origin store with every resource as of in.start and
// stops the clock there. With mutate set, each resource's next change is
// queued; without it the origin never changes.
func newWorld(in *inputs, store *server.Store, mutate bool) *world {
	w := &world{in: in, store: store}
	w.clock.Store(in.start)
	for i := range in.resources {
		r := &in.resources[i]
		lm := r.versionAt(in.start)
		store.Put(server.Resource{URL: r.url, Size: r.gen.Size, LastModified: lm})
		if mutate && r.interval > 0 {
			w.due = append(w.due, tick{t: lm + r.interval, res: int32(i)})
		}
	}
	heap.Init(&w.due)
	return w
}

// now is the Clock handed to server.New and proxy.Config.
func (w *world) now() int64 { return w.clock.Load() }

// advance moves the clock to at least t and returns its reading. Every
// change due by t is applied to the origin before the clock shows t, so
// whoever reads time c is answered by an origin at least as new as c — the
// ordering the staleness oracle relies on.
func (w *world) advance(t int64) int64 {
	if c := w.clock.Load(); t <= c {
		return c
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.due) > 0 && w.due[0].t <= t {
		tk := w.due[0]
		r := &w.in.resources[tk.res]
		w.store.Modify(r.url, tk.t, 0)
		w.mods.Add(1)
		if w.onModify != nil {
			w.onModify(r.url, tk.t)
		}
		w.due[0].t += r.interval
		heap.Fix(&w.due, 0)
	}
	if t > w.clock.Load() {
		w.clock.Store(t)
	}
	return w.clock.Load()
}

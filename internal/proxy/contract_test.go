package proxy

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"piggyback/internal/cache"
	"piggyback/internal/cache/tiered"
	"piggyback/internal/core"
	"piggyback/internal/httpwire"
	"piggyback/internal/server"
)

// The coherency contract (§2.1) as a model test. A seeded schedule drives
// a proxy with every mechanism on — piggybacks, hit answers, change lists
// and their watermark, prefetch, delta bases, a small RAM tier over a disk
// tier, a mesh peer — in front of an origin whose resources change under a
// virtual clock. Every response is judged against the origin's history:
// a body may be stale only while it was requested within Δ of its
// successor's appearance, and a delta base is never served.

const (
	modelHost  = "www.model.test"
	modelDelta = 600
	modelSeeds = 16
	modelSteps = 300
)

// modelWorld is the origin side of the model: its store, the history of
// every resource's versions, and the hooks that make exchanges overlap
// and resources change mid-exchange.
type modelWorld struct {
	t     *testing.T
	rng   *rand.Rand
	now   atomic.Int64
	store *server.Store

	mu      sync.Mutex
	history map[string][]int64
	// parked holds the next exchange for each of its paths after the
	// origin has read the body, until the channel is closed; held hears
	// the path when it is.
	parked map[string]chan struct{}
	held   chan string
	// selfPath is changed, once, by the volume engine's Observe while the
	// origin serves a request for it.
	selfPath string
}

// modifyingVolumes is the origin's volume engine: a DirVolumes whose
// Observe may change the resource being served.
type modifyingVolumes struct {
	core.Provider
	w *modelWorld
}

func (m modifyingVolumes) Observe(a core.Access) {
	m.Provider.Observe(a)
	m.w.mu.Lock()
	hit := m.w.selfPath != "" && a.Element.URL == m.w.selfPath
	if hit {
		m.w.selfPath = ""
	}
	m.w.mu.Unlock()
	if hit {
		m.w.modify(a.Element.URL)
	}
}

// modify makes a new version of path at the current virtual time, unless
// it already changed this second.
func (w *modelWorld) modify(path string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	now := w.now.Load()
	vs := w.history[path]
	if vs[len(vs)-1] >= now {
		return
	}
	w.history[path] = append(vs, now)
	w.store.Modify(path, now, 0)
}

// judge rules on a body of version lm of path requested at sentAt, as the
// bench's oracle does: a version the resource never had, or one whose
// successor appeared Δ or more before the request, is a violation.
func (w *modelWorld) judge(path string, lm, sentAt int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	vs := w.history[path]
	i := len(vs) - 1
	for i >= 0 && vs[i] != lm {
		i--
	}
	switch {
	case i < 0:
		return fmt.Errorf("%s: version %d never existed (history %v)", path, lm, vs)
	case i == len(vs)-1 || vs[i+1] > sentAt:
		return nil // fresh
	case sentAt >= vs[i+1]+modelDelta:
		return fmt.Errorf("%s: version %d served at %d, its successor appeared at %d, more than Δ before", path, lm, sentAt, vs[i+1])
	}
	return nil // stale within Δ
}

// modelBed is one seed's world, its proxy under test (a) and the mesh peer
// (b) that owns exactly one of the paths a is asked for.
type modelBed struct {
	*modelWorld
	a, b       *Proxy
	cfg        Config
	dir        string
	aAddr      string
	paths      []string // a's own, then peerPath
	peerPath   string
	bulk       []string // changed in bursts, never requested
	violations []string
	// heard counts the watermark hits of the proxies a replaced.
	heard int64
}

// watermarkHits counts the copies served under the watermark in the run.
func (mb *modelBed) watermarkHits() int64 {
	return mb.heard + mb.a.Obs().Snapshot().Counter("proxy.watermark_hits")
}

func newModelBed(t *testing.T, seed uint64) *modelBed {
	w := &modelWorld{t: t, rng: rand.New(rand.NewPCG(seed, 7)), store: server.NewStore(), history: map[string][]int64{},
		parked: map[string]chan struct{}{}, held: make(chan string)}
	w.now.Store(100_000)
	put := w.put
	vols := modifyingVolumes{core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true}), w}
	origin := server.New(w.store, vols, w.now.Load)
	originAddr := startOrigin(t, httpwire.HandlerFunc(func(ctx context.Context, req *httpwire.Request) *httpwire.Response {
		resp := origin.ServeWire(ctx, req)
		w.mu.Lock()
		release, ok := w.parked[req.Path]
		delete(w.parked, req.Path)
		w.mu.Unlock()
		if ok {
			w.held <- req.Path
			<-release
		}
		return resp
	}))

	mb := &modelBed{modelWorld: w, dir: t.TempDir()}
	bl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bAddr := bl.Addr().String()
	aAddr := "a.model.test:1" // b never forwards to a: it is asked only for its own key
	mb.aAddr = aAddr
	mb.cfg = Config{
		Delta:         modelDelta,
		BaseFilter:    core.Filter{MaxPiggy: 4},
		Clock:         w.now.Load,
		Resolve:       func(string) (string, error) { return originAddr, nil },
		Prefetch:      true,
		DeltaEncoding: true,
		PeerSelf:      aAddr,
		Peers:         []string{aAddr, bAddr},
	}
	bcfg := mb.cfg
	bcfg.PeerSelf = bAddr
	mb.b = New(bcfg)
	t.Cleanup(mb.b.Close)
	bsrv := &httpwire.Server{Handler: mb.b}
	go bsrv.Serve(bl)
	t.Cleanup(func() { bsrv.Close() })
	mb.start()
	t.Cleanup(func() { mb.a.Close() })

	// Paths a owns, in four directories (four volumes), and one b owns.
	ring := mb.a.PeerRing()
	for i := 0; len(mb.paths) < 24 || mb.peerPath == ""; i++ {
		path := fmt.Sprintf("/d%d/r%03d.html", i%4, i)
		switch owner := ring.Owner(modelHost + path); {
		case owner == aAddr && len(mb.paths) < 24:
			mb.paths = append(mb.paths, path)
		case owner == bAddr && mb.peerPath == "":
			mb.peerPath = path
		default:
			continue
		}
		put(path, 512+int64(w.rng.IntN(6))*512)
	}
	mb.paths = append(mb.paths, mb.peerPath)
	for i := 0; i < 2*httpwire.MaxChanges; i++ {
		path := fmt.Sprintf("/bulk/b%03d.html", i)
		mb.bulk = append(mb.bulk, path)
		put(path, 100)
	}
	put("/sink.html", 100)
	return mb
}

// put adds a resource of the given size at version 1000.
func (w *modelWorld) put(path string, size int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.history[path] = []int64{1000}
	w.store.Put(server.Resource{URL: path, Size: size, LastModified: 1000})
}

// start builds the proxy under test over the bed's disk tier: a RAM tier
// of a few bodies, so that evictions demote and reads promote. Its origin
// leg carries one exchange per connection, so that a parked exchange does
// not hold up the next.
func (mb *modelBed) start() {
	ts, err := tiered.New(cache.NewSharded(40<<10, 1, nil), tiered.Config{Dir: mb.dir})
	if err != nil {
		mb.t.Fatal(err)
	}
	cfg := mb.cfg
	cfg.Store = ts
	mb.a = New(cfg)
	mb.a.origin.client.MaxInflightPerConn = 1
}

// get serves path through a at the current virtual time and judges the
// response: its status, its body's version stamp, the oracle's ruling, and
// that a delta base held when the request came in was not what it served.
func (mb *modelBed) get(path string) {
	sentAt := mb.now.Load()
	base, servable := mb.a.cache.PeekView(modelHost + path)
	resp := proxyGet(mb.a, modelHost+path)
	if err := mb.check(path, resp, sentAt); err != nil {
		mb.violations = append(mb.violations, err.Error())
		return
	}
	// A peer's copy of the same version is the peer's, within its Δ.
	if lm, _ := resp.LastModified(); !servable && base.Outdated && lm <= base.LastModified && resp.Header.Get("X-Cache") != "PEER" {
		mb.violations = append(mb.violations, fmt.Sprintf("%s: served delta base %d (X-Cache %s)", path, lm, resp.Header.Get("X-Cache")))
	}
}

// check judges one response for path requested at sentAt.
func (mb *modelBed) check(path string, resp *httpwire.Response, sentAt int64) error {
	lm, ok := resp.LastModified()
	if resp.Status != 200 || !ok {
		return fmt.Errorf("%s: status %d, Last-Modified %v", path, resp.Status, ok)
	}
	if stamp := fmt.Sprintf("<!-- version %d -->", lm); !strings.HasPrefix(string(resp.Body), stamp) {
		return fmt.Errorf("%s: body %.30q does not carry Last-Modified %d", path, resp.Body, lm)
	}
	if err := mb.judge(path, lm, sentAt); err != nil {
		return fmt.Errorf("%w (X-Cache %s)", err, resp.Header.Get("X-Cache"))
	}
	return nil
}

func (mb *modelBed) pick() string { return mb.paths[mb.rng.IntN(len(mb.paths))] }

func (mb *modelBed) advance(d int64) { mb.now.Add(d) }

// afterwards lets Δ pass without a's copies being read, then has proxy a
// hear from the origin on a demand exchange for a new resource, so that its
// watermark is fresh when the next read of an expired copy comes. The
// resource is in a volume of its own: its piggyback names no copy a holds.
func (mb *modelBed) afterwards(i int) {
	mb.advance(modelDelta + 50)
	mb.get(mb.fresh("/after", i))
}

// fresh adds a resource in dir that a owns and has never been asked for.
func (mb *modelBed) fresh(dir string, i int) string {
	for j := 0; ; j++ {
		path := fmt.Sprintf("%s/new-%d-%d.html", dir, i, j)
		if _, ok := mb.store.Get(path); !ok && mb.a.PeerRing().Owner(modelHost+path) == mb.aAddr {
			mb.put(path, 700)
			return path
		}
	}
}

// step runs one seeded step of the schedule; i numbers it.
func (mb *modelBed) step(i int) {
	switch r := mb.rng.IntN(100); {
	case r < 40:
		mb.get(mb.pick())
	case r < 55:
		mb.advance(1 + mb.rng.Int64N(200))
	case r < 68:
		for n := 1 + mb.rng.IntN(3); n > 0; n-- {
			mb.modify(mb.pick())
		}
	case r < 74:
		mb.a.DrainPrefetchesContext(context.Background(), 4)
	case r < 80:
		mb.outOfOrder(i)
	case r < 85:
		// A change lands while the origin serves the resource itself.
		path := mb.pick()
		mb.mu.Lock()
		mb.selfPath = path
		mb.mu.Unlock()
		mb.advance(modelDelta) // a's copy, if any, has expired
		mb.get(path)
		mb.mu.Lock()
		mb.selfPath = ""
		mb.mu.Unlock()
		mb.afterwards(i)
		mb.get(path)
	case r < 89:
		// More changes than one list carries, the last to a cached path;
		// later, one exchange, whose list is capped before that change.
		for _, path := range mb.bulk {
			mb.modify(path)
		}
		path := mb.pick()
		mb.modify(path)
		mb.advance(100)
		mb.get(mb.bulk[i%len(mb.bulk)])
		mb.advance(modelDelta - 50)
		mb.get(path)
	case r < 92:
		// A change; later, an answer with no change list: a 404.
		path := mb.pick()
		mb.modify(path)
		mb.advance(100)
		if resp := proxyGet(mb.a, fmt.Sprintf("%s/gone-%d.html", modelHost, i)); resp.Status != 404 {
			mb.violations = append(mb.violations, fmt.Sprintf("missing path: status %d", resp.Status))
		}
		mb.advance(modelDelta - 50)
		mb.get(path)
	case r < 95:
		// The peer's copy goes stale while a hears of the change first.
		mb.get(mb.peerPath)
		mb.advance(1 + mb.rng.Int64N(100))
		mb.modify(mb.peerPath)
		mb.get(mb.pick())
		mb.get(mb.peerPath)
		mb.afterwards(i)
		mb.get(mb.peerPath)
	case r < 97:
		// A break: a's token falls behind the origin's change log.
		for n := 0; n <= 4096; n++ {
			mb.now.Add(1)
			mb.modify("/sink.html")
		}
		mb.get(mb.pick())
	case r < 98:
		// Restart over the disk tier.
		mb.heard += mb.a.Obs().Snapshot().Counter("proxy.watermark_hits")
		mb.a.Close()
		mb.start()
	default:
		mb.a.DrainPrefetchesContext(context.Background(), 8)
	}
}

// outOfOrder runs demand exchanges to one host that complete out of order.
// The exchange for x, a resource new to a, is parked after the origin read
// x's body, and x changes. The exchange for y, sent next, lists the change
// and completes, while x is not yet there to take it. The exchange for w,
// sent after y's answer set the token past the change, is parked too; x's
// exchange completes with the old body, setting the token back, and then
// w's, setting it past the change again: nothing will list the change
// again, so the old body must not be covered.
func (mb *modelBed) outOfOrder(i int) {
	y := mb.pick()
	if y == mb.peerPath {
		return
	}
	dir := fmt.Sprintf("/d%d", i%4)
	x, w := mb.fresh(dir, i), mb.fresh(dir, i)
	mb.paths = append(mb.paths, x, w)
	mb.advance(modelDelta) // y's copy, if any, has expired: every read goes upstream
	releaseX, releaseW := make(chan struct{}), make(chan struct{})
	mb.mu.Lock()
	mb.parked[x], mb.parked[w] = releaseX, releaseW
	mb.mu.Unlock()
	sentAt := mb.now.Load()
	doneX, doneW := make(chan *httpwire.Response, 1), make(chan *httpwire.Response, 1)
	go func() { doneX <- proxyGet(mb.a, modelHost+x) }()
	mb.await(x)
	mb.modify(x)
	mb.get(y)
	go func() { doneW <- proxyGet(mb.a, modelHost+w) }()
	mb.await(w)
	close(releaseX)
	respX := <-doneX
	close(releaseW)
	for path, resp := range map[string]*httpwire.Response{x: respX, w: <-doneW} {
		if err := mb.check(path, resp, sentAt); err != nil {
			mb.violations = append(mb.violations, err.Error())
		}
	}
	mb.afterwards(i)
	mb.get(x)
}

// await waits until the origin parks the exchange for path.
func (mb *modelBed) await(path string) {
	select {
	case got := <-mb.held:
		if got != path {
			mb.t.Fatalf("the origin parked %s, want %s", got, path)
		}
	case <-time.After(10 * time.Second):
		mb.t.Fatalf("the exchange for %s never reached the origin", path)
	}
}

// TestCoherencyContractModel runs the schedule on each seed and fails on
// the first violation of the contract.
func TestCoherencyContractModel(t *testing.T) {
	for seed := uint64(1); seed <= modelSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			mb := newModelBed(t, seed)
			for i := 0; i < modelSteps && len(mb.violations) == 0; i++ {
				mb.step(i)
			}
			if len(mb.violations) > 0 {
				t.Fatalf("contract violated: %s", strings.Join(mb.violations, "; "))
			}
			if mb.watermarkHits() == 0 {
				t.Error("no copy was served under the watermark: the schedule did not exercise it")
			}
		})
	}
}

// Command loadtest stands up a live origin→proxy stack on loopback, drives
// it with concurrent clients, and checks what CI needs to hold of it. It
// runs the scenarios named on the command line (all six when none is
// named) and exits non-zero if any check fails:
//
//	loadtest [-cpuprofile file] [smoke|syscalls|brownout|restart-warm|mesh|killpeer]...
//
// Each scenario gets a fresh stack (empty proxy caches, fresh volumes) over
// the same synthetic workload. The proxies' counters are read in-process
// around every run and summed across the fleet, as bench/ reads them; the
// deltas are what the checks read. This is a smoke test of behaviour under
// load, not a yardstick: performance is measured by bench/ (see
// BENCHMARK.json).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"piggyback/internal/cache"
	"piggyback/internal/cache/tiered"
	"piggyback/internal/core"
	"piggyback/internal/faultconn"
	"piggyback/internal/httpwire"
	"piggyback/internal/obs"
	"piggyback/internal/proxy"
	"piggyback/internal/server"
	"piggyback/internal/tracegen"
)

const (
	host     = "www.load.test"
	seed     = 1
	maxPiggy = 10
	// cacheBytes is the fleet's aggregate RAM cache and diskBytes its
	// aggregate disk tier, split evenly across the members.
	cacheBytes = 64 << 20
	diskBytes  = 256 << 20
)

// load is one stack and the traffic driven through it. The zero value of
// every field but requests and workers is the plain case: one healthy
// proxy, closed loop, Δ = 900 s, RAM cache only.
type load struct {
	// requests is how many the run sends: from workers clients in a closed
	// loop, or, when rate > 0, as arrivals paced at rate a second on at
	// most workers clients.
	requests, workers int
	rate              float64
	// fault names a faultconn profile on the origin's listener, seeded by
	// faultSeed (so runs replay); delta and upTimeout override the proxy's
	// Δ and upstream exchange timeout, to make entries expire and failures
	// surface inside a short run.
	fault     string
	faultSeed int64
	delta     int64
	upTimeout time.Duration
	// proxies > 1 stands up a cooperative mesh, closed-loop workers pinned
	// to members round-robin. hotKey redirects that fraction of the
	// requests to one URL: a flash crowd on one ring owner. killPeer keeps
	// clients off the last member — it serves only as a ring owner — and
	// kills it once half the requests have completed.
	proxies  int
	hotKey   float64
	killPeer bool
	// restart closes the whole fleet once half the requests have completed
	// and launches a successor; with disk each member has a disk tier in a
	// temporary directory, which the successor reopens.
	restart, disk bool
}

// outcome is what the checks read off one run; under restart, of the
// relaunched generation, with errors and disk hits summed over both.
type outcome struct {
	errors         int64
	peerHits       int64 // X-Cache: PEER responses
	originRequests int64
	upstreamConns  int64   // origin connections open at the end, fleet-wide
	writesPerOp    float64 // write syscalls per request on the proxies' server side
	upstreamErrs   int64   // wire.upstream.err.*, all classes
	staleServes    int64
	peerForwards   int64
	peerFallbacks  int64
	diskHits       int64 // across both generations under restart
}

type check struct {
	ok   bool
	what string
}

func noErrors(o outcome) check {
	return check{o.errors == 0, fmt.Sprintf("every request got a response (%d errors)", o.errors)}
}

// scenario is one named load and what must be true of its outcome.
type scenario struct {
	name string
	load
	checks func(l load, o outcome) []check
}

var scenarios = []scenario{
	{
		name: "smoke",
		load: load{requests: 400, workers: 16},
		checks: func(_ load, o outcome) []check {
			return []check{noErrors(o),
				{o.upstreamConns > 1, fmt.Sprintf("16 workers spread over more than one upstream connection (%d open)", o.upstreamConns)}}
		},
	},
	{
		// The writev-batched serve path answers a fresh hit in one
		// vectored write, however many clients there are.
		name: "syscalls",
		load: load{requests: 4000, workers: 64},
		checks: func(_ load, o outcome) []check {
			return []check{noErrors(o),
				{o.writesPerOp <= 2, fmt.Sprintf("at most 2 server write syscalls per request at 64 workers (%.2f)", o.writesPerOp)}}
		},
	},
	{
		// The proxy absorbs a brownout: upstream failures are seen and
		// classified, and expired entries are served stale, not 5xx.
		name: "brownout",
		load: load{requests: 1000, workers: 16, rate: 400,
			fault: "brownout", faultSeed: 7, delta: 1, upTimeout: 250 * time.Millisecond},
		checks: func(_ load, o outcome) []check {
			return []check{noErrors(o),
				{o.upstreamErrs > 0, fmt.Sprintf("upstream failures seen and classified (%d)", o.upstreamErrs)},
				{o.staleServes > 0, fmt.Sprintf("expired entries served stale (%d)", o.staleServes)}}
		},
	},
	{
		// A fleet relaunched over its disk tier serves the first
		// generation's working set without going back to the origin; the
		// same restart without a disk tier is what that is compared to.
		name: "restart-warm",
		load: load{requests: 1000, workers: 4, restart: true, disk: true},
		checks: func(l load, warm outcome) []check {
			l.disk = false
			cold := drive("restart-cold", l)
			return []check{noErrors(warm),
				{warm.diskHits > 0, fmt.Sprintf("the relaunched proxy served disk hits (%d)", warm.diskHits)},
				{2*warm.originRequests <= cold.originRequests, fmt.Sprintf("warm restart costs at most half the origin fetches of a cold one (%d vs %d)",
					warm.originRequests, cold.originRequests)}}
		},
	},
	{
		name: "mesh",
		load: load{requests: 1000, workers: 16, proxies: 3, hotKey: 0.3},
		checks: func(_ load, o outcome) []check {
			return []check{noErrors(o),
				{o.peerHits > 0, fmt.Sprintf("misses came back peer-served (%d)", o.peerHits)},
				{o.peerForwards > 0, fmt.Sprintf("misses were routed to ring owners (%d)", o.peerForwards)}}
		},
	},
	{
		// A member's death stays invisible to clients: forwards to the
		// dead owner fall back to the origin.
		name: "killpeer",
		load: load{requests: 1000, workers: 16, proxies: 3, killPeer: true},
		checks: func(_ load, o outcome) []check {
			return []check{noErrors(o),
				{o.peerFallbacks > 0, fmt.Sprintf("forwards to the dead owner fell back to the origin (%d)", o.peerFallbacks)}}
		},
	},
}

// The workload every scenario replays, as proxy-form request URLs, and the
// site it browses.
var (
	workload []string
	site     *tracegen.Site
)

func main() {
	log.SetFlags(0)
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.Parse()
	var run []scenario
	for _, name := range flag.Args() {
		run = append(run, named(name))
	}
	if len(run) == 0 {
		run = scenarios
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
	}

	cfg := tracegen.ProfileAIUSA(0.01)
	cfg.Seed = seed
	raw, s := tracegen.GenerateServerLog(cfg)
	site = s
	for _, r := range raw.Clean() {
		workload = append(workload, "http://"+host+r.URL)
	}
	fmt.Printf("workload: aiusa ×0.01 → %d requests over %d resources\n", len(workload), len(site.Resources))

	failed := 0
	for _, sc := range run {
		for _, c := range sc.checks(sc.load, drive(sc.name, sc.load)) {
			verdict := "ok  "
			if !c.ok {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("  %s %s\n", verdict, c.what)
		}
	}
	// Not deferred: a failed run still leaves a readable profile.
	pprof.StopCPUProfile()
	if failed > 0 {
		log.Fatalf("loadtest: %d checks failed", failed)
	}
}

func named(name string) scenario {
	for _, sc := range scenarios {
		if sc.name == name {
			return sc
		}
	}
	log.Fatalf("loadtest: no scenario %q", name)
	return scenario{}
}

// skew redirects a hotKey fraction of the requests (seeded, reproducible)
// to the workload's first URL.
func skew(urls []string, hotKey float64) []string {
	if hotKey <= 0 {
		return urls
	}
	rng := rand.New(rand.NewSource(seed * 31))
	out := append([]string(nil), urls...)
	for i := range out {
		if rng.Float64() < hotKey {
			out[i] = urls[0]
		}
	}
	return out
}

// clients is what the requests of one run got back.
type clients struct {
	done, errors, peerHits atomic.Int64
}

func (cs *clients) get(c *httpwire.Client, addr, url string) {
	resp, err := c.DoContext(context.Background(), addr, httpwire.NewRequest("GET", url))
	if err != nil {
		cs.errors.Add(1)
		return
	}
	cs.done.Add(1)
	if resp.Header.Get("X-Cache") == "PEER" {
		cs.peerHits.Add(1)
	}
}

// send issues the first n of urls (cycling) to targets: workers clients in a
// closed loop, each pinned to a target round-robin, or, when rate > 0,
// arrivals paced at rate, spread round-robin over the targets and carried
// by at most workers clients — an arrival that finds them all busy is shed.
func send(l load, targets, urls []string, n int) *clients {
	cs := &clients{}
	var wg sync.WaitGroup
	if l.rate > 0 {
		idle := make(chan *httpwire.Client, l.workers)
		for i := 0; i < l.workers; i++ {
			c := httpwire.NewClient()
			defer c.Close()
			idle <- c
		}
		interval := time.Duration(float64(time.Second) / l.rate)
		next := time.Now()
		for i := 0; i < n; i++ {
			time.Sleep(time.Until(next))
			next = next.Add(interval)
			select {
			case c := <-idle:
				wg.Add(1)
				go func(c *httpwire.Client, i int) {
					defer wg.Done()
					cs.get(c, targets[i%len(targets)], urls[i%len(urls)])
					idle <- c
				}(c, i)
			default: // every client busy: the arrival is shed
			}
		}
	} else {
		var issued atomic.Int64
		for w := 0; w < l.workers; w++ {
			wg.Add(1)
			go func(addr string) {
				defer wg.Done()
				c := httpwire.NewClient()
				defer c.Close()
				for i := issued.Add(1) - 1; i < int64(n); i = issued.Add(1) - 1 {
					cs.get(c, addr, urls[i%int64(len(urls))])
				}
			}(targets[w%len(targets)])
		}
	}
	wg.Wait()
	return cs
}

// counters sums the proxies' counters.
func counters(pxs []*proxy.Proxy) obs.Snapshot {
	sum := obs.Snapshot{Counters: make(map[string]int64)}
	for _, p := range pxs {
		for name, v := range p.Obs().Snapshot().Counters {
			sum.Counters[name] += v
		}
	}
	return sum
}

// fleet is one generation of proxies: a restart tears one down mid-run
// and launches a successor over the same disk directories.
type fleet struct {
	pls   []net.Listener
	addrs []string
	pxs   []*proxy.Proxy
	psrvs []*httpwire.Server
}

// launch starts one proxy per directory (an empty name means no disk
// tier), meshed when there is more than one.
func launch(l load, upstream string, diskDirs []string) *fleet {
	n := len(diskDirs)
	f := &fleet{
		pls:   make([]net.Listener, n),
		addrs: make([]string, n),
		pxs:   make([]*proxy.Proxy, n),
		psrvs: make([]*httpwire.Server, n),
	}
	for i := range f.pls {
		f.pls[i] = listen()
		f.addrs[i] = f.pls[i].Addr().String()
	}
	for i := range f.pxs {
		pcfg := proxy.Config{
			CacheBytes:      cacheBytes / int64(n),
			Delta:           l.delta,
			Clock:           clock,
			Resolve:         func(string) (string, error) { return upstream, nil },
			BaseFilter:      core.Filter{MaxPiggy: maxPiggy},
			UpstreamTimeout: l.upTimeout,
		}
		if pcfg.Delta == 0 {
			pcfg.Delta = 900
		}
		if diskDirs[i] != "" {
			ram := cache.NewSharded(pcfg.CacheBytes, 0, cache.PolicyFactory(cache.PiggybackLRU{}))
			ts, err := tiered.New(ram, tiered.Config{Dir: diskDirs[i], DiskBytes: diskBytes / int64(n)})
			if err != nil {
				log.Fatalf("loadtest: disk tier: %v", err)
			}
			pcfg.Store = ts
		}
		if n > 1 {
			pcfg.PeerSelf = f.addrs[i]
			pcfg.Peers = f.addrs
		}
		f.pxs[i] = proxy.New(pcfg)
		f.psrvs[i] = &httpwire.Server{Handler: f.pxs[i],
			Obs: obs.NewWireMetrics(f.pxs[i].Obs(), "wire.server")}
		go f.psrvs[i].Serve(f.pls[i])
	}
	return f
}

// close tears the generation down — servers first so no request races the
// proxy Close, then the proxies themselves (a disk-tiered proxy flushes
// its RAM working set and snapshots its index here, exactly like a real
// process handling SIGTERM) — and returns the disk hits it served, which
// live in the stores' process memory and die with them.
func (f *fleet) close() (diskHits int64) {
	for _, s := range f.psrvs {
		s.Close()
	}
	for _, l := range f.pls {
		l.Close()
	}
	for _, p := range f.pxs {
		diskHits += p.CacheStats().DiskHits
		p.Close()
	}
	return diskHits
}

// drive stands up a fresh stack for l and runs its traffic through it.
func drive(name string, l load) outcome {
	// Origin: the site's resources, last modified well before the run.
	st := server.NewStore()
	for _, r := range site.ResourceTable() {
		st.Put(server.Resource{URL: r.URL, Size: r.Size,
			LastModified: r.LastModifiedAt(site.Config.StartTime)})
	}
	vols := core.NewDirVolumes(core.DirConfig{
		Level: 1, MTF: true, ServerMaxPiggy: maxPiggy, PartitionByType: true,
	})
	origin := server.New(st, vols, clock)
	ol := listen()
	// The fault profile sits on the origin's listener, so the proxies dial
	// through the degraded path.
	profile, ok := faultconn.Profiles(l.fault)
	if !ok {
		log.Fatalf("loadtest: scenario %s: no fault profile %q", name, l.fault)
	}
	fl := faultconn.NewListener(ol, profile, l.faultSeed)
	osrv := &httpwire.Server{Handler: origin,
		Obs: obs.NewWireMetrics(origin.Obs(), "wire.server")}
	go osrv.Serve(fl)
	defer osrv.Close()

	// Under a fault profile, churn upstream connections during the run:
	// persistent connections only consult the fault schedule at dial time,
	// so a run that rode one lucky healthy connection would measure
	// nothing. Periodic aborts model the flaky-network half of a brownout
	// (exchanges die mid-flight) and force redials through the seeded
	// schedule.
	if l.fault != "" {
		churnStop := make(chan struct{})
		defer close(churnStop)
		go func() {
			for {
				select {
				case <-churnStop:
					return
				case <-time.After(100 * time.Millisecond):
					fl.AbortConns()
				}
			}
		}()
	}

	n := l.proxies
	if n == 0 {
		n = 1
	}
	diskDirs := make([]string, n)
	if l.disk {
		for i := range diskDirs {
			d, err := os.MkdirTemp("", "loadtest-tier-")
			if err != nil {
				log.Fatal(err)
			}
			diskDirs[i] = d
			defer os.RemoveAll(d)
		}
	}
	cur := launch(l, ol.Addr().String(), diskDirs)
	defer func() { cur.close() }()

	targets := cur.addrs
	if l.killPeer {
		targets = cur.addrs[:n-1]
		victim, survivors := cur.psrvs[n-1], cur.pxs[:n-1]
		done := make(chan struct{})
		defer close(done)
		go func() {
			for {
				select {
				case <-done:
					return
				case <-time.After(10 * time.Millisecond):
				}
				total := 0
				for _, p := range survivors {
					total += p.Stats().ClientRequests
				}
				if total >= l.requests/2 {
					victim.Close()
					return
				}
			}
		}()
	}

	fmt.Printf("running %-13s ... ", name)
	urls := skew(workload, l.hotKey)
	var o outcome
	reqs := l.requests
	if l.restart {
		// The relaunched generation replays the first one's requests.
		o.errors = send(l, targets, urls, reqs/2).errors.Load()
		o.diskHits = cur.close()
		cur = launch(l, ol.Addr().String(), diskDirs)
		targets = cur.addrs
		reqs -= reqs / 2
	}
	before := counters(cur.pxs)
	start := time.Now()
	cs := send(l, targets, urls, reqs)
	rps := float64(cs.done.Load()) / time.Since(start).Seconds()
	after := counters(cur.pxs)
	o.errors += cs.errors.Load()
	o.peerHits = cs.peerHits.Load()
	fmt.Printf("%6.0f req/s, %d errors\n", rps, o.errors)

	o.originRequests = int64(origin.Stats().Requests)
	for _, p := range cur.pxs {
		o.diskHits += p.CacheStats().DiskHits
	}
	// conns_open is a gauge, so read the live value rather than the
	// run-window delta.
	o.upstreamConns = after.Counter("wire.upstream.conns_open")
	d := after.Sub(before)
	if served := d.Counter("wire.server.requests"); served > 0 {
		o.writesPerOp = float64(d.Counter("wire.server.syscalls.writes")) / float64(served)
	}
	o.staleServes = d.Counter("proxy.stale_serves")
	o.peerForwards = d.Counter("peer.forwards")
	o.peerFallbacks = d.Counter("peer.fallbacks")
	for _, class := range []string{"dial_timeout", "request_timeout", "canceled", "circuit_open", "truncated", "other"} {
		o.upstreamErrs += d.Counter("wire.upstream.err." + class)
	}
	return o
}

func clock() int64 { return time.Now().Unix() }

func listen() net.Listener {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	return l
}

package proxy

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"piggyback/internal/core"
	"piggyback/internal/httpwire"
	"piggyback/internal/server"
)

// fleet wires N meshed proxies in front of one origin over loopback, with
// a shared controllable clock.
type fleet struct {
	origin     *server.Server
	originAddr string
	store      *server.Store
	px         []*Proxy
	srvs       []*httpwire.Server
	ls         []net.Listener
	addrs      []string
	client     *httpwire.Client
	now        int64
}

func newFleet(t *testing.T, n int, cfg Config) *fleet {
	t.Helper()
	f := &fleet{now: 10000}
	clock := func() int64 { return f.now }

	f.store = server.NewStore()
	f.store.Put(server.Resource{URL: "/a/x.html", Size: 100, LastModified: 1000})
	f.store.Put(server.Resource{URL: "/a/y.gif", Size: 50, LastModified: 1500})
	f.store.Put(server.Resource{URL: "/a/big.pdf", Size: 5000, LastModified: 1200})
	for i := 0; i < 6; i++ {
		f.store.Put(server.Resource{URL: fmt.Sprintf("/a/r%d.html", i), Size: 200, LastModified: 1100})
	}
	vols := core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true})
	f.origin = server.New(f.store, vols, clock)

	ol, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	osrv := &httpwire.Server{Handler: f.origin}
	go osrv.Serve(ol)
	t.Cleanup(func() { osrv.Close() })
	originAddr := ol.Addr().String()
	f.originAddr = originAddr

	// Bind every proxy's listener first: the ring is built over the
	// advertised addresses, which must be known before New.
	f.ls = make([]net.Listener, n)
	for i := range f.ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		f.ls[i] = l
		f.addrs = append(f.addrs, l.Addr().String())
	}
	for i := 0; i < n; i++ {
		c := cfg
		c.Clock = clock
		c.Resolve = func(host string) (string, error) { return originAddr, nil }
		c.PeerSelf = f.addrs[i]
		c.Peers = f.addrs
		p := New(c)
		f.px = append(f.px, p)
		t.Cleanup(p.Close)
		srv := &httpwire.Server{Handler: p}
		f.srvs = append(f.srvs, srv)
		go srv.Serve(f.ls[i])
		t.Cleanup(func() { srv.Close() })
	}

	f.client = httpwire.NewClient()
	t.Cleanup(f.client.Close)
	return f
}

// get issues a client request through proxy i (absolute-URI form).
func (f *fleet) get(t *testing.T, i int, url string) *httpwire.Response {
	t.Helper()
	resp, err := f.client.DoContext(context.Background(), f.addrs[i], httpwire.NewRequest("GET", "http://"+url))
	if err != nil {
		t.Fatalf("request for %s via proxy %d: %v", url, i, err)
	}
	return resp
}

// ownerIndex returns which fleet member owns key on the ring.
func (f *fleet) ownerIndex(t *testing.T, key string) int {
	t.Helper()
	owner := f.px[0].PeerRing().Owner(key)
	for i, a := range f.addrs {
		if a == owner {
			return i
		}
	}
	t.Fatalf("owner %q of %q is not a fleet member", owner, key)
	return -1
}

func TestMeshForwardServesPeerAndCachesLocally(t *testing.T) {
	f := newFleet(t, 3, Config{Delta: 600})
	const key = "www.site.com/a/x.html"
	o := f.ownerIndex(t, key)
	r := (o + 1) % 3

	resp := f.get(t, r, key)
	if resp.Status != 200 || resp.Header.Get("X-Cache") != "PEER" {
		t.Fatalf("forwarded miss: %d %s", resp.Status, resp.Header.Get("X-Cache"))
	}
	if got := f.origin.Stats().Requests; got != 1 {
		t.Errorf("origin requests = %d, want 1 (owner fetches once)", got)
	}
	st := f.px[r].Stats()
	if st.PeerForwards != 1 || st.PeerServes != 1 || st.PeerFallbacks != 0 {
		t.Errorf("requester peer stats = %+v", st)
	}
	if got := f.px[o].Stats().PeerRequestsServed; got != 1 {
		t.Errorf("owner PeerRequestsServed = %d, want 1", got)
	}

	// Both sides cached the body: re-requests are local fresh hits and
	// cost the origin nothing.
	f.now += 10
	if got := f.get(t, r, key).Header.Get("X-Cache"); got != "HIT" {
		t.Errorf("requester re-request = %s, want HIT", got)
	}
	if got := f.get(t, o, key).Header.Get("X-Cache"); got != "HIT" {
		t.Errorf("owner re-request = %s, want HIT", got)
	}
	if got := f.origin.Stats().Requests; got != 1 {
		t.Errorf("origin requests after hits = %d, want 1", got)
	}
}

func TestMeshPeerMarkedRequestNotReforwarded(t *testing.T) {
	f := newFleet(t, 3, Config{Delta: 600})
	const key = "www.site.com/a/x.html"
	o := f.ownerIndex(t, key)
	r := (o + 1) % 3

	// A peer-marked request landing on a proxy that does NOT own the key
	// (as happens briefly when rings disagree) must be served locally,
	// never bounced onward.
	req := httpwire.NewRequest("GET", "http://"+key)
	httpwire.SetPeerFrom(req, f.addrs[o])
	resp, err := f.client.DoContext(context.Background(), f.addrs[r], req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("peer-marked request: %d %s, want 200 MISS (served locally)", resp.Status, resp.Header.Get("X-Cache"))
	}
	st := f.px[r].Stats()
	if st.PeerForwards != 0 {
		t.Errorf("peer-marked request was re-forwarded: %+v", st)
	}
	if st.PeerRequestsServed != 1 {
		t.Errorf("PeerRequestsServed = %d, want 1", st.PeerRequestsServed)
	}
}

func TestMeshDeadOwnerFallsBackToOrigin(t *testing.T) {
	f := newFleet(t, 3, Config{Delta: 600})
	const key = "www.site.com/a/x.html"
	o := f.ownerIndex(t, key)
	r := (o + 1) % 3

	// The owner dies. Close the listener too: Server.Close skips it when
	// the Serve goroutine hasn't registered it yet, and a kernel-accepted
	// but never-served connection would stall the forward until the peer
	// timeout instead of refusing instantly.
	f.srvs[o].Close()
	f.ls[o].Close()

	resp := f.get(t, r, key)
	if resp.Status != 200 || resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("with dead owner: %d %s, want 200 MISS via origin", resp.Status, resp.Header.Get("X-Cache"))
	}
	st := f.px[r].Stats()
	if st.PeerForwards != 1 || st.PeerFallbacks != 1 || st.PeerServes != 0 {
		t.Errorf("peer stats = %+v, want one forward falling back", st)
	}
	if st.UpstreamErrors != 0 {
		t.Errorf("UpstreamErrors = %d; a peer fallback is not an origin failure", st.UpstreamErrors)
	}
}

func TestMeshPropagatesPiggybackToRecentRequester(t *testing.T) {
	f := newFleet(t, 2, Config{Delta: 600})
	const key = "www.site.com/a/x.html"
	o := f.ownerIndex(t, key)
	r := 1 - o

	// Warm the origin's /a/ volume with a direct (non-proxied) exchange:
	// dir volumes learn members from served requests, and the requested
	// URL itself is excluded from its own piggyback, so the volume must
	// already hold another member for x.html's response to carry one.
	wreq := httpwire.NewRequest("GET", "/a/y.gif")
	wreq.Header.Set("Host", "www.site.com")
	httpwire.SetFilter(wreq, core.Filter{})
	if _, err := f.client.DoContext(context.Background(), f.originAddr, wreq); err != nil {
		t.Fatal(err)
	}

	// r routes a miss to owner o; o's origin exchange carries a P-Volume
	// trailer, which o re-propagates to r (its one recent requester).
	if got := f.get(t, r, key).Header.Get("X-Cache"); got != "PEER" {
		t.Fatalf("forwarded miss = %s, want PEER", got)
	}

	// The receiver counts before the sender's exchange returns, so wait
	// for both sides.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) &&
		(f.px[r].Stats().PeerPropagationsReceived == 0 || f.px[o].Stats().PeerPropagationsSent == 0) {
		time.Sleep(5 * time.Millisecond)
	}
	rs := f.px[r].Stats()
	if rs.PeerPropagationsReceived == 0 {
		t.Fatalf("requester never received the propagated piggyback: %+v", rs)
	}
	// The propagated message went through the ordinary piggyback
	// processing path even though r itself never spoke to the origin.
	if rs.PiggybacksReceived == 0 || rs.PiggybackElements == 0 {
		t.Errorf("propagated message not processed: %+v", rs)
	}
	if os := f.px[o].Stats(); os.PeerPropagationsSent == 0 {
		t.Errorf("owner sent no propagation: %+v", os)
	}
}

func TestMeshDisabledConfigs(t *testing.T) {
	clock := func() int64 { return 0 }
	res := func(string) (string, error) { return "", nil }
	for name, cfg := range map[string]Config{
		"no self":    {Clock: clock, Resolve: res, Peers: []string{"a:1", "b:1"}},
		"self alone": {Clock: clock, Resolve: res, PeerSelf: "a:1", Peers: []string{"a:1"}},
	} {
		p := New(cfg)
		if p.PeerRing() != nil {
			t.Errorf("%s: mesh unexpectedly enabled", name)
		}
		p.Close()
	}
}

func TestMeshConcurrentFleetHammer(t *testing.T) {
	f := newFleet(t, 3, Config{Delta: 600})
	urls := []string{
		"www.site.com/a/x.html", "www.site.com/a/y.gif", "www.site.com/a/big.pdf",
		"www.site.com/a/r0.html", "www.site.com/a/r1.html", "www.site.com/a/r2.html",
		"www.site.com/a/r3.html", "www.site.com/a/r4.html", "www.site.com/a/r5.html",
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := httpwire.NewClient()
			defer cl.Close()
			for i := 0; i < 40; i++ {
				u := urls[(g*7+i)%len(urls)]
				resp, err := cl.DoContext(context.Background(), f.addrs[(g+i)%len(f.addrs)], httpwire.NewRequest("GET", "http://"+u))
				if err != nil {
					errs <- fmt.Sprintf("goroutine %d: %v", g, err)
					return
				}
				if resp.Status != 200 {
					errs <- fmt.Sprintf("goroutine %d: status %d for %s", g, resp.Status, u)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	// The mesh actually routed: someone forwarded, someone served.
	var forwards, serves int
	for _, p := range f.px {
		st := p.Stats()
		forwards += st.PeerForwards
		serves += st.PeerServes
	}
	if forwards == 0 || serves == 0 {
		t.Errorf("hammer never exercised the mesh: forwards=%d serves=%d", forwards, serves)
	}
}

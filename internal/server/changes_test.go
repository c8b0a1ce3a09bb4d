package server

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"piggyback/internal/core"
	"piggyback/internal/httpwire"
)

// sinceRequest is a cooperating proxy's GET of path carrying token.
func sinceRequest(path, token string) *httpwire.Request {
	req := get(path)
	httpwire.SetFilter(req, core.Filter{MaxPiggy: 10})
	req.Header.Set(httpwire.FieldPiggySince, token)
	return req
}

// exchange sends sinceRequest(path, token) to s and returns the change
// list it answers with; complete is false for a list the cap cut short and
// for a break. Every answer carries one.
func exchange(t *testing.T, s *Server, path, token string) (next string, els []core.Element, brk, complete bool) {
	t.Helper()
	resp := s.ServeWire(context.Background(), sinceRequest(path, token))
	if resp.Status != 200 {
		t.Fatalf("GET %s: status %d", path, resp.Status)
	}
	next, els, brk, complete, ok := httpwire.ExtractChanges(resp)
	if !ok {
		t.Fatalf("missing or malformed P-Changes %q", resp.Trailer.Get(httpwire.FieldPChanges))
	}
	return next, els, brk, complete
}

// urls returns the elements' URLs.
func urls(els []core.Element) []string {
	out := make([]string, len(els))
	for i, e := range els {
		out[i] = e.URL
	}
	return out
}

// TestChangeLogAnswersSince: the first token is a break; each later
// exchange lists what changed since the token it carries, once per URL,
// with its current version, leaving out the requested resource, and a
// token covering them; nothing new is a complete, empty list under the
// same token, and the server's counters move by exactly what went out.
func TestChangeLogAnswersSince(t *testing.T) {
	s, st := testServer(2000)
	t0, els, brk, complete := exchange(t, s, "/a/x.html", httpwire.NoToken)
	if !brk || complete || len(els) != 0 {
		t.Fatalf("first exchange: break %v complete %v elements %v, want a break", brk, complete, els)
	}
	if next, els, brk, complete := exchange(t, s, "/a/x.html", t0); next != t0 || len(els) != 0 || brk || !complete {
		t.Fatalf("nothing changed: token %q elements %v break %v complete %v, want a complete, empty list under %q", next, els, brk, complete, t0)
	}

	st.Modify("/a/y.gif", 3000, 60)
	st.Modify("/b/z.html", 3100, 0)
	st.Modify("/a/y.gif", 3200, 0) // a second change of one URL is listed once
	st.Modify("/a/x.html", 3300, 0)
	t1, els, brk, complete := exchange(t, s, "/a/x.html", t0)
	want := []core.Element{{URL: "/a/y.gif", Size: 60, LastModified: 3200}, {URL: "/b/z.html", Size: 70, LastModified: 3100}}
	if !complete || brk || fmt.Sprint(els) != fmt.Sprint(want) || t1 == t0 {
		t.Fatalf("got complete %v break %v token %q elements %v, want %v under a new token", complete, brk, t1, els, want)
	}
	// The old token again: the same changes, and x.html, which another
	// request did not carry.
	if _, els, _, _ := exchange(t, s, "/a/y.gif", t0); strings.Join(urls(els), " ") != "/a/x.html /b/z.html" {
		t.Errorf("replayed token listed %v, want [/a/x.html /b/z.html]", urls(els))
	}
	if next, els, _, _ := exchange(t, s, "/a/x.html", t1); next != t1 || len(els) != 0 {
		t.Errorf("the new token covers every change, yet %v was listed under %q", els, next)
	}

	snap := s.Obs().Snapshot()
	if got := [3]int64{snap.Counter("server.changes_sent"), snap.Counter("server.change_breaks"), snap.Counter("server.change_bytes")}; got[0] != 4 || got[1] != 1 || got[2] < 20 {
		t.Errorf("changes_sent, change_breaks, change_bytes = %v, want 4, 1 and the value bytes", got)
	}
}

// TestChangeLogBreaks: a token of another epoch (the origin restarted),
// one older than the log, one from the future and a malformed one are
// each answered with a break: the current token and no list. A request
// without an enabled filter and trailers gets no change list at all.
func TestChangeLogBreaks(t *testing.T) {
	s, st := testServer(2000)
	head, _, _, _ := exchange(t, s, "/a/x.html", httpwire.NoToken)
	epoch, _, _ := strings.Cut(head, ".")

	other := NewStore()
	otherHead, _, _ := other.Changes(httpwire.NoToken, "", 0)
	for name, token := range map[string]string{
		"restarted origin": otherHead,
		"future":           epoch + ".5",
		"malformed":        epoch + ".x",
		"no epoch":         "0",
	} {
		next, els, brk, _ := exchange(t, s, "/a/x.html", token)
		if !brk || len(els) != 0 || next != head {
			t.Errorf("%s token %q: break %v elements %v token %q, want a break to %q", name, token, brk, els, next, head)
		}
	}

	// Past the horizon: the oldest change the token needs has been
	// overwritten.
	for i := 0; i <= changeLogSize; i++ {
		st.Modify("/a/y.gif", int64(3000+i), 0)
	}
	next, els, brk, _ := exchange(t, s, "/a/x.html", head)
	if !brk || len(els) != 0 || next == head {
		t.Errorf("token older than the log: break %v elements %v token %q, want a break to a new token", brk, els, next)
	}
	// One change short of the horizon is still served.
	st.Modify("/b/z.html", 9000, 0)
	for i := 0; i < changeLogSize-1; i++ {
		st.Modify("/a/y.gif", int64(10000+i), 0)
	}
	if _, els, brk, _ := exchange(t, s, "/a/x.html", next); brk || len(els) != 2 {
		t.Errorf("token at the horizon: break %v elements %v, want both changed URLs", brk, els)
	}

	for name, req := range map[string]*httpwire.Request{
		"no filter": func() *httpwire.Request {
			r := get("/a/x.html")
			r.Header.Set(httpwire.FieldPiggySince, head)
			return r
		}(),
		"disabled filter": func() *httpwire.Request {
			r := sinceRequest("/a/x.html", head)
			httpwire.SetFilter(r, core.Filter{Disabled: true})
			return r
		}(),
	} {
		if v := s.ServeWire(context.Background(), req).Trailer.Get(httpwire.FieldPChanges); v != "" {
			t.Errorf("%s: P-Changes %q attached", name, v)
		}
	}
}

// TestChangeLogCapContinues: a list stops at httpwire.MaxChanges elements
// (or MaxChangeBytes), its token covers only what it listed, and the next
// answers list the rest: every change arrives once, none is lost.
func TestChangeLogCapContinues(t *testing.T) {
	st := NewStore()
	s := New(st, nil, func() int64 { return 2000 })
	const n = 150
	for i := 0; i < n; i++ {
		st.Put(Resource{URL: fmt.Sprintf("/d/page-%03d.html", i), Size: 100, LastModified: 1000})
	}
	st.Put(Resource{URL: "/self.html", Size: 10, LastModified: 1000})
	token, _, _, _ := exchange(t, s, "/self.html", httpwire.NoToken)
	for i := n - 1; i >= 0; i-- {
		st.Modify(fmt.Sprintf("/d/page-%03d.html", i), int64(5000+i), 0)
	}
	seen := map[string]int{}
	lists := 0
	for complete := false; !complete; lists++ {
		var next string
		var els []core.Element
		var brk bool
		next, els, brk, complete = exchange(t, s, "/self.html", token)
		if brk || len(els) > httpwire.MaxChanges || next == token {
			t.Fatalf("list %d: break %v, %d elements, token %q after %q", lists, brk, len(els), next, token)
		}
		if !complete && len(els) != httpwire.MaxChanges {
			t.Errorf("list %d: cut short at %d elements, below the cap", lists, len(els))
		}
		for _, e := range els {
			seen[e.URL]++
		}
		token = next
	}
	if lists != 3 || len(seen) != n {
		t.Fatalf("%d lists carried %d distinct URLs, want 3 carrying %d, the last complete", lists, len(seen), n)
	}
	for url, k := range seen {
		if k != 1 {
			t.Errorf("%s listed %d times", url, k)
		}
	}

	// The byte cap: long paths stop a list before MaxChanges, and the
	// rest follow.
	long := strings.Repeat("x", 200)
	for i := 0; i < 20; i++ {
		url := fmt.Sprintf("/l/%s-%02d", long, i)
		st.Put(Resource{URL: url, Size: 100, LastModified: 1000})
		st.Modify(url, 6000, 0)
	}
	total := 0
	lists = 0
	for complete := false; !complete; lists++ {
		resp := s.ServeWire(context.Background(), sinceRequest("/self.html", token))
		v := resp.Trailer.Get(httpwire.FieldPChanges)
		next, els, _, c, _ := httpwire.ExtractChanges(resp)
		if len(v) > len(next)+1+httpwire.MaxChangeBytes {
			t.Errorf("list %d: %d bytes, cap %d", lists, len(v), httpwire.MaxChangeBytes)
		}
		total += len(els)
		token, complete = next, c
	}
	if lists < 2 || total != 20 {
		t.Errorf("byte cap: %d lists carried %d elements, want 20 in more than one", lists, total)
	}
}

// TestChangeLogPutReplaceAndRemove: a Put that replaces a resource is a
// change, a first Put is not, and a removal is one no list can carry: the
// answer to a token before it is a break, since a proxy's copy of the
// removed resource must not stay covered. A resource removed and put back
// is listed at its new version.
func TestChangeLogPutReplaceAndRemove(t *testing.T) {
	s, st := testServer(2000)
	token, _, _, _ := exchange(t, s, "/a/x.html", httpwire.NoToken)
	st.Put(Resource{URL: "/a/new.html", Size: 10, LastModified: 2500})
	st.Put(Resource{URL: "/a/y.gif", Size: 80, LastModified: 2600})
	token, els, _, complete := exchange(t, s, "/a/x.html", token)
	if want := []core.Element{{URL: "/a/y.gif", Size: 80, LastModified: 2600}}; fmt.Sprint(els) != fmt.Sprint(want) || !complete {
		t.Errorf("listed %v (complete %v), want %v", els, complete, want)
	}
	st.Modify("/b/z.html", 2700, 0)
	st.Remove("/b/z.html")
	if next, els, brk, _ := exchange(t, s, "/a/x.html", token); !brk || len(els) != 0 || next == token {
		t.Errorf("after a removal: break %v, elements %v, token %q; want a break to a new token", brk, els, next)
	}
	token, _, _, _ = exchange(t, s, "/a/x.html", httpwire.NoToken)
	st.Remove("/a/y.gif")
	st.Put(Resource{URL: "/a/y.gif", Size: 90, LastModified: 2800})
	if _, els, brk, _ := exchange(t, s, "/a/x.html", token); brk || fmt.Sprint(els) != fmt.Sprint([]core.Element{{URL: "/a/y.gif", Size: 90, LastModified: 2800}}) {
		t.Errorf("removed and put back: break %v, elements %v; want y.gif at 2800", brk, els)
	}
}

// TestChangeLogListsSelfChangedWhileServed: a change to the requested
// resource made after the server read the version it serves — here by the
// volume engine's Observe, between the read and the list — is listed: the
// token covers it, and a proxy that admitted the old body must hear of it.
// A self unchanged since the read is left out.
func TestChangeLogListsSelfChangedWhileServed(t *testing.T) {
	st := NewStore()
	st.Put(Resource{URL: "/a/x.html", Size: 100, LastModified: 1000})
	vols := &modifyOnObserve{st: st, url: "/a/x.html", lm: 5000}
	s := New(st, vols, func() int64 { return 2000 })
	token, _, _, _ := exchange(t, s, "/a/x.html", httpwire.NoToken)
	vols.armed = true
	resp := s.ServeWire(context.Background(), sinceRequest("/a/x.html", token))
	if lm, _ := resp.LastModified(); lm != 1000 {
		t.Fatalf("served Last-Modified %d, want the version read before Observe, 1000", lm)
	}
	next, els, brk, complete, _ := httpwire.ExtractChanges(resp)
	if want := []core.Element{{URL: "/a/x.html", Size: 100, LastModified: 5000}}; brk || !complete || fmt.Sprint(els) != fmt.Sprint(want) {
		t.Fatalf("list %v (break %v, complete %v), want %v", els, brk, complete, want)
	}
	if _, els, _, _ := exchange(t, s, "/a/x.html", next); len(els) != 0 {
		t.Errorf("self unchanged since the read listed %v", els)
	}
}

// modifyOnObserve is a volume engine whose Observe, once armed, modifies
// url to version lm, once: a change that lands while a request is served.
type modifyOnObserve struct {
	st    *Store
	url   string
	lm    int64
	armed bool
}

func (m *modifyOnObserve) Observe(a core.Access) {
	if m.armed {
		m.armed = false
		m.st.Modify(m.url, m.lm, 0)
	}
}

func (m *modifyOnObserve) Piggyback(string, int64, core.Filter) (core.Message, bool) {
	return core.Message{}, false
}

package server

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"piggyback/internal/core"
	"piggyback/internal/httpwire"
)

func testServer(clockAt int64) (*Server, *Store) {
	st := NewStore()
	st.Put(Resource{URL: "/a/x.html", Size: 100, LastModified: 1000})
	st.Put(Resource{URL: "/a/y.gif", Size: 50, LastModified: 1500})
	st.Put(Resource{URL: "/b/z.html", Size: 70, LastModified: 900})
	vols := core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true})
	now := clockAt
	return New(st, vols, func() int64 { return now }), st
}

func get(path string) *httpwire.Request { return httpwire.NewRequest("GET", path) }

func TestServeBasicGet(t *testing.T) {
	s, _ := testServer(2000)
	resp := s.ServeWire(context.Background(), get("/a/x.html"))
	if resp.Status != 200 {
		t.Fatalf("status = %d", resp.Status)
	}
	if int64(len(resp.Body)) != 100 {
		t.Errorf("body length = %d, want 100", len(resp.Body))
	}
	if lm, ok := resp.LastModified(); !ok || lm != 1000 {
		t.Errorf("Last-Modified = %d, %v", lm, ok)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/html" {
		t.Errorf("Content-Type = %q", ct)
	}
}

func TestServe404And501(t *testing.T) {
	s, _ := testServer(2000)
	if resp := s.ServeWire(context.Background(), get("/missing")); resp.Status != 404 {
		t.Errorf("status = %d, want 404", resp.Status)
	}
	req := httpwire.NewRequest("DELETE", "/a/x.html")
	if resp := s.ServeWire(context.Background(), req); resp.Status != 501 {
		t.Errorf("status = %d, want 501", resp.Status)
	}
	st := s.Stats()
	if st.NotFound != 1 || st.Requests != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestIfModifiedSinceValidation(t *testing.T) {
	s, _ := testServer(2000)
	req := get("/a/x.html")
	req.Header.Set("If-Modified-Since", httpwire.FormatHTTPDate(1000))
	resp := s.ServeWire(context.Background(), req)
	if resp.Status != 304 {
		t.Fatalf("status = %d, want 304 (IMS == LM)", resp.Status)
	}
	if len(resp.Body) != 0 {
		t.Error("304 carried a body")
	}
	// Older copy: full response.
	req2 := get("/a/x.html")
	req2.Header.Set("If-Modified-Since", httpwire.FormatHTTPDate(500))
	if resp := s.ServeWire(context.Background(), req2); resp.Status != 200 {
		t.Errorf("status = %d, want 200 (stale copy)", resp.Status)
	}
	if s.Stats().NotModified != 1 {
		t.Errorf("NotModified = %d", s.Stats().NotModified)
	}
}

func TestPiggybackOnlyForCooperatingProxies(t *testing.T) {
	s, _ := testServer(2000)
	// Warm the volume.
	s.ServeWire(context.Background(), get("/a/y.gif"))

	// Plain request: no piggyback even though the volume has content.
	resp := s.ServeWire(context.Background(), get("/a/x.html"))
	if _, ok := httpwire.ExtractPiggyback(resp); ok {
		t.Error("piggyback sent without a filter")
	}

	// Filter but no TE: chunked: still no piggyback.
	req := get("/a/x.html")
	req.Header.Set(httpwire.FieldPiggyFilter, "maxpiggy=5")
	resp = s.ServeWire(context.Background(), req)
	if _, ok := httpwire.ExtractPiggyback(resp); ok {
		t.Error("piggyback sent without TE: chunked")
	}

	// Proper piggybacking request.
	req2 := get("/a/x.html")
	httpwire.SetFilter(req2, core.Filter{MaxPiggy: 5})
	resp = s.ServeWire(context.Background(), req2)
	m, ok := httpwire.ExtractPiggyback(resp)
	if !ok {
		t.Fatal("no piggyback for cooperating proxy")
	}
	found := false
	for _, e := range m.Elements {
		if e.URL == "/a/y.gif" && e.Size == 50 && e.LastModified == 1500 {
			found = true
		}
		if e.URL == "/a/x.html" {
			t.Error("piggyback includes the requested resource")
		}
		if e.URL == "/b/z.html" {
			t.Error("piggyback crossed volumes")
		}
	}
	if !found {
		t.Errorf("expected /a/y.gif in piggyback: %+v", m.Elements)
	}
	if st := s.Stats(); st.PiggybacksSent != 1 || st.PiggybackElems == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPiggybackOn304(t *testing.T) {
	s, _ := testServer(2000)
	s.ServeWire(context.Background(), get("/a/y.gif"))
	req := get("/a/x.html")
	req.Header.Set("If-Modified-Since", httpwire.FormatHTTPDate(1000))
	httpwire.SetFilter(req, core.Filter{MaxPiggy: 5})
	resp := s.ServeWire(context.Background(), req)
	if resp.Status != 304 {
		t.Fatalf("status = %d", resp.Status)
	}
	if _, ok := httpwire.ExtractPiggyback(resp); !ok {
		t.Error("304 should still carry the piggyback trailer")
	}
}

func TestModifyInvalidatesValidation(t *testing.T) {
	s, store := testServer(2000)
	store.Modify("/a/x.html", 1800, 0)
	req := get("/a/x.html")
	req.Header.Set("If-Modified-Since", httpwire.FormatHTTPDate(1000))
	resp := s.ServeWire(context.Background(), req)
	if resp.Status != 200 {
		t.Fatalf("status = %d, want 200 after modification", resp.Status)
	}
	if lm, _ := resp.LastModified(); lm != 1800 {
		t.Errorf("Last-Modified = %d", lm)
	}
}

func TestStoreOperations(t *testing.T) {
	st := NewStore()
	st.Put(Resource{URL: "/x", Size: 10, LastModified: 5})
	if st.Len() != 1 {
		t.Fatal("Len")
	}
	r, ok := st.Get("/x")
	if !ok || r.ContentType == "" {
		t.Fatalf("Get = %+v, %v (content type should default)", r, ok)
	}
	if !st.Modify("/x", 9, 20) {
		t.Fatal("Modify")
	}
	r, _ = st.Get("/x")
	if r.LastModified != 9 || r.Size != 20 {
		t.Errorf("after Modify: %+v", r)
	}
	if st.Modify("/zz", 1, 1) {
		t.Error("Modify missing resource")
	}
	if !st.Remove("/x") || st.Remove("/x") {
		t.Error("Remove semantics")
	}
}

// TestStoreGetModifyRace: Modify rewrites the stored Resource in place, so
// Get must copy it under the lock — every copy pairs a Last-Modified with
// its own rendered date. Run with -race.
func TestStoreGetModifyRace(t *testing.T) {
	st := NewStore()
	st.Put(Resource{URL: "/x", Size: 10, LastModified: 1})
	const rounds = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for lm := int64(2); lm < rounds; lm++ {
			st.Modify("/x", lm*86400, 0)
		}
	}()
	for i := 0; i < rounds; i++ {
		r, ok := st.Get("/x")
		if !ok {
			t.Fatal("resource vanished")
		}
		if want := httpwire.FormatHTTPDate(r.LastModified); r.lmDate != want {
			t.Fatalf("torn read: Last-Modified %d with date %q, want %q", r.LastModified, r.lmDate, want)
		}
	}
	<-done
}

func TestBodySynthesisDeterministicAndSized(t *testing.T) {
	r := &Resource{URL: "/a/x.html", Size: 1000}
	b1, b2 := r.body(7), r.body(7)
	if !bytes.Equal(b1, b2) {
		t.Error("body not deterministic")
	}
	if int64(len(b1)) != 1000 {
		t.Errorf("body length = %d", len(b1))
	}
	big := &Resource{URL: "/big", Size: 10 << 20}
	if len(big.body(7)) != maxBodyBytes {
		t.Errorf("big body = %d, want capped at %d", len(big.body(7)), maxBodyBytes)
	}
	empty := &Resource{URL: "/e", Size: 0}
	if len(empty.body(7)) != 0 {
		t.Error("zero-size body")
	}
}

func TestBodyVersionsDifferSparsely(t *testing.T) {
	r := &Resource{URL: "/a/x.html", Size: 8192}
	v1, v2 := r.body(1000), r.body(2000)
	if bytes.Equal(v1, v2) {
		t.Fatal("versions identical")
	}
	// Versions differ in at most a few 512-byte blocks.
	diff := 0
	for i := 0; i < len(v1); i += 512 {
		hi := i + 512
		if hi > len(v1) {
			hi = len(v1)
		}
		if !bytes.Equal(v1[i:hi], v2[i:hi]) {
			diff++
		}
	}
	if diff == 0 || diff > 3 {
		t.Errorf("versions differ in %d blocks, want 1-3", diff)
	}
}

func TestServerWithoutVolumes(t *testing.T) {
	st := NewStore()
	st.Put(Resource{URL: "/x", Size: 5, LastModified: 1})
	s := New(st, nil, func() int64 { return 10 })
	req := get("/x")
	httpwire.SetFilter(req, core.Filter{MaxPiggy: 5})
	resp := s.ServeWire(context.Background(), req)
	if resp.Status != 200 {
		t.Fatalf("status = %d", resp.Status)
	}
	if _, ok := httpwire.ExtractPiggyback(resp); ok {
		t.Error("volume-less server sent a piggyback")
	}
}

// TestHitReportAnswered: each distinct reported URL the store holds is
// answered once, at its first index, with its current version, and unknown
// URLs are skipped; a 304 carries the answer as a 200 does.
func TestHitReportAnswered(t *testing.T) {
	s, st := testServer(2000)
	st.Modify("/b/z.html", 1900, 0)
	req := get("/a/x.html")
	req.Header.Set("If-Modified-Since", httpwire.FormatHTTPDate(1000))
	httpwire.SetFilter(req, core.Filter{MaxPiggy: 5})
	sent := httpwire.SetPaths(req, httpwire.FieldPiggyHits, []string{"/b/z.html", "/missing", "/a/y.gif", "/a/y.gif"})
	resp := s.ServeWire(context.Background(), req)
	if resp.Status != 304 {
		t.Fatalf("status = %d, want 304", resp.Status)
	}
	got := httpwire.ExtractAnswers(resp, req, len(sent))
	// SetPaths sends the newest report first: /a/y.gif, /a/y.gif,
	// /missing, /b/z.html.
	want := []httpwire.Answer{
		{I: 0, Size: 50, LastModified: 1500},
		{I: 3, Size: 70, LastModified: 1900},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("P-Valid2 %q = %+v, want %+v", resp.Trailer.Get(httpwire.FieldPValid), got, want)
	}
	if ss := s.Stats(); ss.HitReports != 4 || ss.HitValidations != 2 {
		t.Errorf("HitReports %d, HitValidations %d, want 4 and 2", ss.HitReports, ss.HitValidations)
	}
}

// TestHitReportAnsweredOnlyForEnabledFilters: without a filter, with the
// filter off, or without TE: chunked, a report still counts toward the
// volumes but is not answered.
func TestHitReportAnsweredOnlyForEnabledFilters(t *testing.T) {
	cases := []struct {
		name  string
		setup func(*httpwire.Request)
	}{
		{"no filter", func(*httpwire.Request) {}},
		{"filter off", func(r *httpwire.Request) { httpwire.SetFilter(r, core.Filter{Disabled: true}) }},
		{"no TE: chunked", func(r *httpwire.Request) { r.Header.Set(httpwire.FieldPiggyFilter, "maxpiggy=5") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := testServer(2000)
			req := get("/a/x.html")
			tc.setup(req)
			httpwire.SetPaths(req, httpwire.FieldPiggyHits, []string{"/a/y.gif"})
			httpwire.SetPaths(req, httpwire.FieldPiggyValidate, []string{"/b/z.html"})
			resp := s.ServeWire(context.Background(), req)
			if resp.Trailer.Has(httpwire.FieldPValid) {
				t.Errorf("P-Valid2 = %q, want none", resp.Trailer.Get(httpwire.FieldPValid))
			}
			if ss := s.Stats(); ss.HitReports != 1 || ss.HitValidations != 0 {
				t.Errorf("HitReports %d, HitValidations %d, want 1 and 0", ss.HitReports, ss.HitValidations)
			}
		})
	}
}

// TestValidationListIgnored: the Piggy-Validate list an older proxy sends
// is not answered, but its hits are, under the digest of both lists, so
// the older proxy still accepts the answer; a listed URL is not an access,
// so the volumes' piggyback order is the one the same request without a
// list leaves.
func TestValidationListIgnored(t *testing.T) {
	request := func(list []string) *httpwire.Request {
		req := get("/a/x.html")
		httpwire.SetFilter(req, core.Filter{MaxPiggy: 5})
		httpwire.SetPaths(req, httpwire.FieldPiggyHits, []string{"/a/y.gif"})
		httpwire.SetPaths(req, httpwire.FieldPiggyValidate, list)
		return req
	}
	// /a/w.html is in x.html's volume only if something observes it.
	plain, st := testServer(2000)
	st.Put(Resource{URL: "/a/w.html", Size: 30, LastModified: 800})
	plain.ServeWire(context.Background(), request(nil))
	s, st := testServer(2000)
	st.Put(Resource{URL: "/a/w.html", Size: 30, LastModified: 800})
	req := request([]string{"/b/z.html", "/a/w.html", "/a/y.gif"})
	resp := s.ServeWire(context.Background(), req)
	want := []httpwire.Answer{{I: 0, Size: 50, LastModified: 1500}}
	if got := httpwire.ExtractAnswers(resp, req, 4); !reflect.DeepEqual(got, want) {
		t.Errorf("P-Valid2 %q = %+v, want %+v", resp.Trailer.Get(httpwire.FieldPValid), got, want)
	}
	if ss := s.Stats(); ss.HitValidations != 1 {
		t.Errorf("HitValidations %d, want 1", ss.HitValidations)
	}
	f := core.Filter{}
	got, _ := s.Volumes().Piggyback("/a/x.html", 2000, f)
	base, _ := plain.Volumes().Piggyback("/a/x.html", 2000, f)
	if !reflect.DeepEqual(got.Elements, base.Elements) {
		t.Errorf("volume order %+v after a listing, want %+v: listed URLs were observed", got.Elements, base.Elements)
	}
}

// Package server implements the cooperating origin server (§2.1): an
// in-memory resource store served over httpwire with If-Modified-Since
// validation, a pluggable volume engine, and piggyback generation — the
// P-Volume message rides in the chunked trailer of each response when the
// request carries a Piggy-Filter and accepts chunked coding (§2.3).
package server

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"sync"

	"piggyback/internal/core"
	"piggyback/internal/delta"
	"piggyback/internal/httpwire"
	"piggyback/internal/obs"
	"piggyback/internal/trace"
)

// Resource is one resource at the origin.
type Resource struct {
	URL string
	// Size is the authoritative resource size (advertised in piggyback
	// elements and Content-Length).
	Size int64
	// LastModified is the current version's modification time.
	LastModified int64
	// ContentType is the MIME type; empty derives it from the URL.
	ContentType string
	// lmDate caches the HTTP-date rendering of LastModified, computed when
	// the store learns the time (Put, Modify) instead of on every response.
	lmDate string
}

// httpDate returns the resource's Last-Modified as an HTTP-date, using the
// cached rendering when the store filled it.
func (r *Resource) httpDate() string {
	if r.lmDate == "" {
		return httpwire.FormatHTTPDate(r.LastModified)
	}
	return r.lmDate
}

// maxBodyBytes caps synthesized bodies: huge resources are served
// truncated (this is a protocol testbed, not a file server), with
// Content-Length matching the bytes actually sent.
const maxBodyBytes = 256 << 10

// body synthesizes deterministic content for the given version of the
// resource: mostly version-independent blocks, with the version stamped
// into block 0 and one version-dependent block — so successive versions
// differ in at most a few blocks, the regime where delta encoding shines
// (§4, ref [23]). Determinism in (URL, size, version) stands in for a
// server that retains recent versions for delta generation.
func (r *Resource) body(version int64) []byte {
	n := r.Size
	if n > maxBodyBytes {
		n = maxBodyBytes
	}
	if n <= 0 {
		return nil
	}
	pattern := []byte("<!-- " + r.URL + " -->\n")
	out := bytes.Repeat(pattern, int(n)/len(pattern)+1)[:n]
	stamp := []byte(fmt.Sprintf("<!-- version %d -->", version))
	copy(out, stamp)
	if nBlocks := int(n) / delta.DefaultBlockSize; nBlocks > 1 {
		b := 1 + int(version)%(nBlocks-1)
		copy(out[b*delta.DefaultBlockSize:], stamp)
	}
	return out
}

// changeLogSize is how many changes the change log remembers: a proxy
// whose token is older than that gets a break.
const changeLogSize = 4096

// Store is a concurrent resource table, with a change log that answers a
// proxy's Piggy-Since token (piggyback server invalidation).
type Store struct {
	mu  sync.RWMutex
	res map[string]*Resource
	// log is a ring of the URLs changed: the change numbered n is at
	// log[n%changeLogSize], and seq numbers the latest, so the ring holds
	// changes seq-changeLogSize+1 through seq. epoch is fixed when the
	// store starts, so a token from another store (an origin before its
	// restart) is a break; head is the rendered token of seq, and quiet
	// the complete, empty list under it: nothing changed since head.
	log   []string
	seq   uint64
	epoch string
	head  string
	quiet string
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{res: make(map[string]*Resource), log: make([]string, changeLogSize),
		epoch: strconv.FormatUint(uint64(rand.Uint32()), 36)}
	s.setHead()
	return s
}

// Put inserts or replaces a resource. A replacement is a change.
func (s *Store) Put(r Resource) {
	if r.ContentType == "" {
		r.ContentType = trace.ContentType(r.URL)
	}
	r.lmDate = httpwire.FormatHTTPDate(r.LastModified)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.res[r.URL]; ok {
		s.logChange(r.URL)
	}
	s.res[r.URL] = &r
}

// Get returns a copy of the resource, taken under the read lock: Modify
// rewrites the stored Resource in place.
func (s *Store) Get(url string) (Resource, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.res[url]
	if !ok {
		return Resource{}, false
	}
	return *r, true
}

// Remove deletes a resource. A removal is a change.
func (s *Store) Remove(url string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.res[url]; !ok {
		return false
	}
	delete(s.res, url)
	s.logChange(url)
	return true
}

// Modify bumps the resource's Last-Modified time (and optionally its
// size), modeling a content update.
func (s *Store) Modify(url string, lastModified, newSize int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.res[url]
	if !ok {
		return false
	}
	r.LastModified = lastModified
	r.lmDate = httpwire.FormatHTTPDate(lastModified)
	if newSize > 0 {
		r.Size = newSize
	}
	s.logChange(url)
	return true
}

// logChange appends url to the change log. Caller holds s.mu for writing.
func (s *Store) logChange(url string) {
	s.seq++
	s.log[s.seq%changeLogSize] = url
	s.setHead()
}

// setHead renders the token of seq and the list saying nothing changed
// since it, once per change, so that a static origin answers every
// Piggy-Since without rendering anything.
func (s *Store) setHead() {
	s.head = s.token(s.seq)
	s.quiet = httpwire.ChangesValue(s.head, nil, true)
}

// token renders the token covering the changes through seq.
func (s *Store) token(seq uint64) string {
	return s.epoch + "." + strconv.FormatUint(seq, 10)
}

// Changes renders the P-Changes value answering a proxy's Piggy-Since
// token sent on a request for self, whose response carries self's version
// served: the resources changed after the token, each once, with its
// current version, and the token covering them. self is left out unless it
// changed again after served was read. The list follows the log and stops
// at httpwire.MaxChanges elements or httpwire.MaxChangeBytes, and then the
// token covers only the changes before the one that did not fit, so the
// next answer starts there and nothing is lost; a list that reaches the
// head is complete, and says so. n counts the elements. brk reports a
// break, answered with the current token alone: since is httpwire.NoToken,
// malformed, of another epoch, or older than the log — or it precedes a
// change no list can carry (a removed resource, a path that is not
// httpwire.Listable, a version that is not positive), since a proxy's
// copy of that resource must not stay covered.
func (s *Store) Changes(since, self string, served int64) (value string, n int, brk bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	epoch, num, _ := strings.Cut(since, ".")
	from, err := strconv.ParseUint(num, 10, 64)
	if epoch != s.epoch || err != nil || from > s.seq || s.seq-from > changeLogSize {
		return s.head, 0, true
	}
	if from == s.seq {
		return s.quiet, 0, false
	}
	var els []core.Element
	used := 0
	for at := from + 1; at <= s.seq; at++ {
		url := s.log[at%changeLogSize]
		r, ok := s.res[url]
		if ok && url == self && r.LastModified == served ||
			slices.ContainsFunc(els, func(e core.Element) bool { return e.URL == url }) {
			continue
		}
		if !ok || r.LastModified <= 0 || !strings.HasPrefix(url, "/") || !httpwire.Listable(url) {
			return s.head, 0, true
		}
		el := core.Element{URL: url, Size: r.Size, LastModified: r.LastModified}
		cost := httpwire.ChangeCost(el)
		if cost > httpwire.MaxChangeBytes {
			return s.head, 0, true
		}
		if len(els) == httpwire.MaxChanges || used+cost > httpwire.MaxChangeBytes {
			return httpwire.ChangesValue(s.token(at-1), els, false), len(els), false
		}
		used += cost
		els = append(els, el)
	}
	return httpwire.ChangesValue(s.head, els, true), len(els), false
}

// Len returns the number of resources.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.res)
}

// Server is the piggybacking origin server.
type Server struct {
	store *Store
	vols  core.Provider
	clock func() int64

	obs *obs.Registry
	c   serverCounters
}

// serverCounters caches the registry's counter pointers so the request
// path is pure atomic adds — no map lookups, no locks.
type serverCounters struct {
	requests        *obs.Counter
	notModified     *obs.Counter
	notFound        *obs.Counter
	piggybacksSent  *obs.Counter
	piggybackElems  *obs.Counter
	piggybackBytes  *obs.Counter
	hitReports      *obs.Counter
	hitValidations  *obs.Counter
	answerBytes     *obs.Counter
	deltasSent      *obs.Counter
	deltaBytesSaved *obs.Counter
	// changesSent counts the elements of P-Changes lists, changeBytes
	// their value bytes, changeBreaks the lists that were breaks.
	changesSent  *obs.Counter
	changeBytes  *obs.Counter
	changeBreaks *obs.Counter
}

// Stats counts server-side protocol activity.
type Stats struct {
	Requests       int
	NotModified    int
	NotFound       int
	PiggybacksSent int
	PiggybackElems int
	PiggybackBytes int64
	// HitReports counts cache-hit URLs received via Piggy-Hits headers
	// (§5): proxy-satisfied accesses folded back into volume upkeep.
	HitReports int
	// HitValidations counts the reported resources answered in P-Valid2
	// trailers: each distinct reported URL the store holds, once per
	// response, for a proxy whose filter is enabled.
	HitValidations int
	// DeltasSent counts 226 delta responses; DeltaBytesSaved the body
	// bytes they avoided transferring (§4, ref [23]).
	DeltasSent      int
	DeltaBytesSaved int64
}

// New returns a Server over the store and volume engine. clock returns the
// current Unix time; injectable so trace replays and tests control time.
func New(store *Store, vols core.Provider, clock func() int64) *Server {
	reg := obs.NewRegistry()
	return &Server{store: store, vols: vols, clock: clock, obs: reg,
		c: serverCounters{
			requests:        reg.Counter("server.requests"),
			notModified:     reg.Counter("server.not_modified"),
			notFound:        reg.Counter("server.not_found"),
			piggybacksSent:  reg.Counter("server.piggybacks_sent"),
			piggybackElems:  reg.Counter("server.piggyback_elems"),
			piggybackBytes:  reg.Counter("server.piggyback_bytes"),
			hitReports:      reg.Counter("server.hit_reports"),
			hitValidations:  reg.Counter("server.hit_validations"),
			answerBytes:     reg.Counter("server.answer_bytes"),
			deltasSent:      reg.Counter("server.deltas_sent"),
			deltaBytesSaved: reg.Counter("server.delta_bytes_saved"),
			changesSent:     reg.Counter("server.changes_sent"),
			changeBytes:     reg.Counter("server.change_bytes"),
			changeBreaks:    reg.Counter("server.change_breaks"),
		}}
}

// Store returns the resource store (for administrative updates).
func (s *Server) Store() *Store { return s.store }

// Volumes returns the volume engine.
func (s *Server) Volumes() core.Provider { return s.vols }

// Obs returns the server's telemetry registry (also served live on
// obs.StatsPath).
func (s *Server) Obs() *obs.Registry { return s.obs }

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:        int(s.c.requests.Load()),
		NotModified:     int(s.c.notModified.Load()),
		NotFound:        int(s.c.notFound.Load()),
		PiggybacksSent:  int(s.c.piggybacksSent.Load()),
		PiggybackElems:  int(s.c.piggybackElems.Load()),
		PiggybackBytes:  s.c.piggybackBytes.Load(),
		HitReports:      int(s.c.hitReports.Load()),
		HitValidations:  int(s.c.hitValidations.Load()),
		DeltasSent:      int(s.c.deltasSent.Load()),
		DeltaBytesSaved: s.c.deltaBytesSaved.Load(),
	}
}

// refreshElements overwrites piggyback element attributes with the store's
// authoritative values — the server "has considerable knowledge about each
// resource, including the size... as well as the frequency of resource
// modifications" (§2.1), so piggybacked Last-Modified times reflect
// modifications made since the volume last saw a request for the resource.
// Elements for resources no longer in the store are dropped. Delegating to
// core keeps the message's pre-serialized segments coherent with the
// refreshed attributes.
func (s *Server) refreshElements(m *core.Message) {
	m.RefreshElements(func(url string) (int64, int64, bool) {
		res, ok := s.store.Get(url)
		if !ok {
			return 0, 0, false
		}
		return res.Size, res.LastModified, true
	})
}

// acceptsBlockdiff reports whether the request advertises the blockdiff
// instance manipulation (A-IM, RFC 3229 style).
func acceptsBlockdiff(req *httpwire.Request) bool {
	for _, im := range strings.Split(req.Header.Get("A-IM"), ",") {
		if strings.EqualFold(strings.TrimSpace(im), "blockdiff") {
			return true
		}
	}
	return false
}

// ServeWire implements httpwire.Handler: GET/HEAD with If-Modified-Since
// validation, delta encoding (A-IM: blockdiff), and piggyback trailers.
// The origin answers from memory, so the request context is unused beyond
// satisfying the handler contract.
func (s *Server) ServeWire(_ context.Context, req *httpwire.Request) *httpwire.Response {
	if httpwire.IsStatsRequest(req) {
		return httpwire.StatsResponse(s.obs)
	}
	if httpwire.IsPprofRequest(req) {
		return httpwire.PprofResponse(req)
	}
	now := s.clock()
	s.c.requests.Inc()

	if req.Method != "GET" && req.Method != "HEAD" {
		return httpwire.NewResponse(501)
	}
	res, ok := s.store.Get(req.Path)
	if !ok {
		s.c.notFound.Inc()
		return httpwire.NewResponse(404)
	}

	// Piggybacks go only to cooperating proxies: ones that sent a filter
	// and accept chunked trailers (§2.3). Hit reports and change-list tokens
	// are answered when that filter is enabled.
	filter, hasFilter := httpwire.GetFilter(req)
	trailers := hasFilter && req.AcceptsChunkedTrailer()
	answer := trailers && !filter.Disabled

	// The server observes every request to maintain its volumes; the
	// source is the requesting proxy (§3.3: pairwise probabilities are
	// per-source).
	elem := core.Element{URL: res.URL, Size: res.Size, LastModified: res.LastModified}
	if s.vols != nil {
		s.vols.Observe(core.Access{Source: req.RemoteAddr, Time: now, Element: elem})
	}
	// Piggy-Hits: accesses the proxy satisfied from its cache count toward
	// volume popularity too (§5 future work), and a cooperating proxy is
	// told the current version of each one it reported, by its index. A
	// Piggy-Validate list an older proxy sends is not answered: its copies
	// are validated when next read.
	hits := httpwire.GetPaths(req, httpwire.FieldPiggyHits)
	var answers []httpwire.Answer
	var answered map[string]bool
	if answer {
		answered = make(map[string]bool, len(hits))
		answers = make([]httpwire.Answer, 0, len(hits))
	}
	for i, h := range hits {
		r, ok := s.store.Get(h)
		if !ok {
			continue
		}
		if s.vols != nil {
			s.vols.Observe(core.Access{Source: req.RemoteAddr, Time: now,
				Element: core.Element{URL: r.URL, Size: r.Size, LastModified: r.LastModified}})
		}
		if answer && !answered[h] {
			answered[h] = true
			answers = append(answers, httpwire.Answer{I: i, LastModified: r.LastModified, Size: r.Size})
		}
	}
	s.c.hitReports.Add(int64(len(hits)))
	s.c.hitValidations.Add(int64(len(answers)))

	var resp *httpwire.Response
	ims, hasIMS := req.IfModifiedSince()
	switch {
	case hasIMS && ims >= res.LastModified:
		// §2.1: "if the proxy-specified Last-Modified time is greater
		// or equal to the Last-Modified time at the server, the
		// server simply validates the resource".
		resp = httpwire.NewResponse(304)
		s.c.notModified.Inc()
	case hasIMS && acceptsBlockdiff(req):
		// §4 delta encoding [23]: the resource changed; transmit only
		// the difference between the proxy's version and the current
		// one. Fall back to a full response when the delta does not
		// pay off.
		oldBody := res.body(ims)
		newBody := res.body(res.LastModified)
		patch := delta.Make(oldBody, newBody, delta.DefaultBlockSize)
		if enc := patch.Encode(); len(enc) < len(newBody) {
			resp = httpwire.NewResponse(226)
			resp.Body = enc
			resp.Header.Set("IM", "blockdiff")
			resp.Header.Set("Content-Type", res.ContentType)
			s.c.deltasSent.Inc()
			s.c.deltaBytesSaved.Add(int64(len(newBody) - len(enc)))
		} else {
			resp = httpwire.NewResponse(200)
			resp.Body = newBody
			resp.Header.Set("Content-Type", res.ContentType)
		}
	default:
		resp = httpwire.NewResponse(200)
		resp.Body = res.body(res.LastModified)
		resp.Header.Set("Content-Type", res.ContentType)
	}
	resp.Header.Set("Last-Modified", res.httpDate())

	// Piggyback generation (a 304 carries its trailer as a 200 does).
	if trailers && s.vols != nil {
		if m, ok := s.vols.Piggyback(req.Path, now, filter); ok {
			s.refreshElements(&m)
			if !m.Empty() {
				httpwire.AttachPiggyback(resp, m)
				s.c.piggybacksSent.Inc()
				s.c.piggybackElems.Add(int64(len(m.Elements)))
				s.c.piggybackBytes.Add(int64(m.WireBytes()))
			}
		}
	}
	if len(answers) > 0 {
		httpwire.AttachAnswers(resp, req, answers)
		s.c.answerBytes.Add(int64(len(resp.Trailer.Get(httpwire.FieldPValid))))
	}
	if since := req.Header.Get(httpwire.FieldPiggySince); answer && since != "" {
		s.attachChanges(resp, since, req.Path, res.LastModified)
	}
	return resp
}

// attachChanges answers a cooperating proxy's Piggy-Since token with the
// resources changed since it (piggyback server invalidation), in a
// P-Changes trailer beside P-Valid2, even when nothing changed: only an
// explicit, complete list lets the proxy keep its copies fresh. served is
// the version of path the response carries.
func (s *Server) attachChanges(resp *httpwire.Response, since, path string, served int64) {
	value, n, brk := s.store.Changes(since, path, served)
	httpwire.AttachChanges(resp, value)
	s.c.changesSent.Add(int64(n))
	s.c.changeBytes.Add(int64(len(value)))
	if brk {
		s.c.changeBreaks.Inc()
	}
}

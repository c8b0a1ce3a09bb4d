package sim

import (
	"hash/fnv"

	"piggyback/internal/cache"
	"piggyback/internal/core"
	"piggyback/internal/trace"
)

// Hierarchical caching (§1: "we focus on one-level caching, though our
// techniques are applicable to the general case of hierarchical caching").
// ReplayHierarchy models a two-level tree: client sources hash onto child
// proxies, child misses go to one parent proxy, parent misses go to the
// origin. Piggybacks generated at the origin flow to the parent and are
// propagated down to the requesting child, freshening cached copies at
// both levels so fewer requests need validation.

// The replayed tree is the one the hierarchy experiment reports: four
// children under one parent, each cache LRU, every copy fresh for Δ after
// a fetch or a refresh.
const (
	hierChildren   = 4        // child proxies
	hierDelta      = 900      // Δ in seconds: 15 minutes
	childCapacity  = 16 << 20 // bytes per child cache
	parentCapacity = 64 << 20 // bytes in the parent cache: four children's worth
)

// HierarchyConfig parameterizes the replay.
type HierarchyConfig struct {
	// Provider is the origin's volume engine (fed online); nil disables
	// piggybacking.
	Provider core.Provider
	// RPVTimeout > 0 gives the parent an RPV list whose entries live this
	// many seconds, pacing origin piggybacks; zero attaches none.
	RPVTimeout int64
}

// HierarchyResult reports the replay.
type HierarchyResult struct {
	Requests int
	// ChildHits were served fresh at a child; ParentHits fresh at the
	// parent (after a child miss); OriginFetches reached the origin.
	ChildHits, ParentHits, OriginFetches int
	// Validations are requests that found only a stale copy and had to
	// revalidate at the origin.
	Validations int
	// Refreshes counts cache entries (parent or child) freshened by a
	// piggyback; AvoidedValidations counts requests served fresh from a
	// copy whose freshness came from a piggyback rather than a fetch.
	Refreshes          int
	AvoidedValidations int
	PiggybackMessages  int
	PiggybackElements  int
}

// ChildHitRate returns fresh child hits over all requests.
func (r HierarchyResult) ChildHitRate() float64 { return ratio(r.ChildHits, r.Requests) }

// ParentHitRate returns fresh parent hits over child misses.
func (r HierarchyResult) ParentHitRate() float64 {
	return ratio(r.ParentHits, r.Requests-r.ChildHits)
}

// OriginLoad returns origin contacts (fetches + validations) over requests.
func (r HierarchyResult) OriginLoad() float64 {
	return ratio(r.OriginFetches+r.Validations, r.Requests)
}

type hierEntry struct {
	// piggybackFresh marks entries whose current freshness was granted
	// by a piggyback, to attribute later fresh hits.
	piggybackFresh bool
}

// ReplayHierarchy replays the log through the two-level tree.
func ReplayHierarchy(log trace.Log, cfg HierarchyConfig) HierarchyResult {
	children := make([]*cache.Cache, hierChildren)
	marks := make([]map[string]*hierEntry, hierChildren)
	for i := range children {
		children[i] = cache.New(childCapacity, cache.LRU{})
		marks[i] = make(map[string]*hierEntry)
	}
	parent := cache.New(parentCapacity, cache.LRU{})
	parentMarks := make(map[string]*hierEntry)
	var parentRPV *core.RPVList
	if cfg.RPVTimeout > 0 {
		parentRPV = core.NewRPVList(cfg.RPVTimeout)
	}

	var res HierarchyResult
	sizes := make(map[string]int64)

	childOf := func(src string) int {
		h := fnv.New32a()
		h.Write([]byte(src))
		return int(h.Sum32() % hierChildren)
	}

	mark := func(m map[string]*hierEntry, url string) *hierEntry {
		e, ok := m[url]
		if !ok {
			e = &hierEntry{}
			m[url] = e
		}
		return e
	}

	for i := range log {
		rec := &log[i]
		now := rec.Time
		url := rec.URL
		size := rec.Size
		if size <= 0 {
			size = sizes[url]
			if size <= 0 {
				size = 1
			}
		} else {
			sizes[url] = size
		}
		res.Requests++
		ci := childOf(rec.Client)
		child := children[ci]

		// 1. Child level.
		if e, ok := child.Get(url, now); ok && e.Fresh(now) {
			res.ChildHits++
			if m := marks[ci][url]; m != nil && m.piggybackFresh {
				res.AvoidedValidations++
			}
			continue
		}

		// 2. Parent level.
		if e, ok := parent.Get(url, now); ok && e.Fresh(now) {
			res.ParentHits++
			if m := parentMarks[url]; m != nil && m.piggybackFresh {
				res.AvoidedValidations++
			}
			// Copy down.
			child.Put(cache.Entry{URL: url, Size: size, LastModified: e.LastModified, Expires: e.Expires}, now)
			mark(marks[ci], url).piggybackFresh = false
			continue
		}

		// 3. Origin: a fetch (miss) or validation (stale copy anywhere).
		_, childStale := child.Peek(url)
		_, parentStale := parent.Peek(url)
		if childStale || parentStale {
			res.Validations++
		} else {
			res.OriginFetches++
		}
		expires := now + hierDelta
		parent.Put(cache.Entry{URL: url, Size: size, LastModified: rec.LastModified, Expires: expires}, now)
		parentMarks[url] = &hierEntry{}
		child.Put(cache.Entry{URL: url, Size: size, LastModified: rec.LastModified, Expires: expires}, now)
		mark(marks[ci], url).piggybackFresh = false

		if cfg.Provider == nil {
			continue
		}
		cfg.Provider.Observe(core.Access{Source: "parent", Time: now,
			Element: core.Element{URL: url, Size: size, LastModified: rec.LastModified}})
		var f core.Filter
		if parentRPV != nil {
			f.RPV = parentRPV.Snapshot(now)
		}
		m, ok := cfg.Provider.Piggyback(url, now, f)
		if !ok {
			continue
		}
		res.PiggybackMessages++
		res.PiggybackElements += len(m.Elements)
		if parentRPV != nil {
			parentRPV.Note(m.Volume, now)
		}
		for _, el := range m.Elements {
			// Freshen (or invalidate) at the parent and at the
			// requesting child — the piggyback's reach in a
			// hierarchy.
			refresh := func(c *cache.Cache, mk map[string]*hierEntry) {
				e, ok := c.Peek(el.URL)
				if !ok {
					return
				}
				if el.LastModified > e.LastModified {
					c.Delete(el.URL)
					delete(mk, el.URL)
					return
				}
				if c.Freshen(el.URL, now+hierDelta) {
					res.Refreshes++
					mark(mk, el.URL).piggybackFresh = true
				}
			}
			refresh(parent, parentMarks)
			refresh(child, marks[ci])
		}
	}
	return res
}

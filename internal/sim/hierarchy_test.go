package sim

import (
	"strconv"
	"testing"

	"piggyback/internal/core"
	"piggyback/internal/trace"
)

// hierTrace: many clients re-reading a small working set; re-reads happen
// after Δ so freshness matters.
func hierTrace(clients, rounds int, gap int64) trace.Log {
	var l trace.Log
	tt := int64(1000)
	for r := 0; r < rounds; r++ {
		for c := 0; c < clients; c++ {
			client := "c" + strconv.Itoa(c)
			l = append(l, trace.Record{Time: tt, Client: client, URL: "/a/page.html", Size: 1000, LastModified: 10})
			l = append(l, trace.Record{Time: tt + 3, Client: client, URL: "/a/img.gif", Size: 500, LastModified: 10})
			tt += 10
		}
		tt += gap
	}
	l.SortByTime()
	return l
}

func TestHierarchyLevels(t *testing.T) {
	log := hierTrace(8, 3, 60) // re-reads within Δ: plenty of cache hits
	res := ReplayHierarchy(log, HierarchyConfig{})
	if res.Requests != len(log) {
		t.Fatalf("requests = %d", res.Requests)
	}
	if res.ChildHits == 0 || res.ParentHits == 0 || res.OriginFetches == 0 {
		t.Fatalf("levels not exercised: %+v", res)
	}
	// Conservation: every request lands at exactly one level.
	total := res.ChildHits + res.ParentHits + res.OriginFetches + res.Validations
	if total != res.Requests {
		t.Fatalf("level counts %d != requests %d", total, res.Requests)
	}
	// The parent aggregates children: its first fetch serves the other
	// child's first request.
	if res.OriginFetches >= res.Requests/2 {
		t.Errorf("parent not absorbing misses: %+v", res)
	}
}

func TestHierarchyPiggybackAvoidsValidations(t *testing.T) {
	// Rounds spaced beyond Δ: without piggybacking every round
	// revalidates; with it, the piggyback on the page fetch freshens
	// the image at both levels.
	log := hierTrace(6, 8, 1200)
	without := ReplayHierarchy(log, HierarchyConfig{})

	vols := core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true, ServerMaxPiggy: 10})
	with := ReplayHierarchy(log, HierarchyConfig{Provider: vols})
	if with.Refreshes == 0 {
		t.Fatalf("no piggyback refreshes: %+v", with)
	}
	if with.AvoidedValidations == 0 {
		t.Fatalf("no avoided validations: %+v", with)
	}
	if with.OriginLoad() >= without.OriginLoad() {
		t.Errorf("piggybacking did not reduce origin load: %.3f vs %.3f",
			with.OriginLoad(), without.OriginLoad())
	}
}

func TestHierarchyChildAffinity(t *testing.T) {
	// The same source must always map to the same child.
	log := hierTrace(1, 4, 30)
	res := ReplayHierarchy(log, HierarchyConfig{})
	// One client: after the first fetch, everything within Δ is a child
	// hit; no parent hits possible for a single source.
	if res.ParentHits != 0 {
		t.Errorf("single source produced parent hits: %+v", res)
	}
}

func TestHierarchyRPVPacesPiggybacks(t *testing.T) {
	// Each request is for a page of /a not read before, so each reaches
	// the origin and the difference is purely the RPV pacing of
	// piggybacks to the parent. (With a working set as small as
	// hierTrace's, origin contacts come at most once per Δ, never inside
	// an RPV timeout that does not exceed Δ.)
	var log trace.Log
	for i := 0; i < 200; i++ {
		log = append(log, trace.Record{Time: 1000 + 10*int64(i), Client: "c" + strconv.Itoa(i%6),
			URL: "/a/p" + strconv.Itoa(i) + ".html", Size: 1000, LastModified: 10})
	}
	vols := core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true, ServerMaxPiggy: 10})
	noPace := ReplayHierarchy(log, HierarchyConfig{Provider: vols})
	vols2 := core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true, ServerMaxPiggy: 10})
	paced := ReplayHierarchy(log, HierarchyConfig{Provider: vols2, RPVTimeout: 600})
	if paced.PiggybackMessages >= noPace.PiggybackMessages {
		t.Errorf("RPV did not pace piggybacks: %d vs %d",
			paced.PiggybackMessages, noPace.PiggybackMessages)
	}
}

func TestHierarchyResultRatios(t *testing.T) {
	r := HierarchyResult{Requests: 100, ChildHits: 40, ParentHits: 30, OriginFetches: 20, Validations: 10}
	if r.ChildHitRate() != 0.4 {
		t.Errorf("ChildHitRate = %v", r.ChildHitRate())
	}
	if r.ParentHitRate() != 0.5 {
		t.Errorf("ParentHitRate = %v", r.ParentHitRate())
	}
	if r.OriginLoad() != 0.3 {
		t.Errorf("OriginLoad = %v", r.OriginLoad())
	}
}

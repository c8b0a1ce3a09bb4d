package main

import (
	"fmt"

	"piggyback/internal/cache"
	"piggyback/internal/core"
	"piggyback/internal/metrics"
	"piggyback/internal/sim"
)

// runTable2 reproduces Table 2: client log characteristics. The paper's
// absolute counts are quoted for comparison; synthetic logs are scaled
// down, so the shape to check is the relative ordering (Digital larger in
// requests/servers/resources, AT&T longer in days).
func runTable2(l *lab) {
	paper := map[string][3]string{
		"digital": {"6.41M", "57,832", "2,083,491"},
		"att":     {"1.11M", "18,005", "521,330"},
	}
	tbl := &metrics.Table{Header: []string{"Client Log", "Requests", "Distinct Servers", "Unique Resources", "| paper:", "Requests", "Servers", "Resources"}}
	for _, name := range []string{"digital", "att"} {
		log := l.clientLog(name)
		p := paper[name]
		tbl.AddRow(name+"-like", len(log), log.Servers(), log.UniqueResources(), "|", p[0], p[1], p[2])
	}
	fmt.Print(tbl.String())
	for _, name := range []string{"digital", "att"} {
		log := l.clientLog(name)
		fmt.Printf("%s-like: %d clients, %.1f days, mean response %.0f B\n",
			name, log.Clients(), float64(log.Duration())/86400, log.MeanSize())
	}
}

// runTable3 reproduces Table 3: server log characteristics.
func runTable3(l *lab) {
	paper := map[string][4]string{
		"aiusa":   {"180,324", "7,627", "23.64", "1,102"},
		"marimba": {"222,393", "24,103", "9.23", "94"},
		"apache":  {"2,916,549", "271,687", "10.73", "788"},
		"sun":     {"13,037,895", "218,518", "59.66", "29,436"},
	}
	tbl := &metrics.Table{Header: []string{"Server Log", "Requests", "Clients", "Req/Source", "Resources", "| paper:", "Requests", "Clients", "Req/Src", "Resources"}}
	for _, name := range []string{"aiusa", "marimba", "apache", "sun"} {
		log := l.serverLogRaw(name)
		perSrc := float64(len(log)) / float64(log.Clients())
		p := paper[name]
		tbl.AddRow(name+"-like", len(log), log.Clients(), perSrc, log.UniqueResources(), "|", p[0], p[1], p[2], p[3])
	}
	fmt.Print(tbl.String())
	for _, name := range []string{"aiusa", "marimba", "apache", "sun"} {
		raw := l.serverLogRaw(name)
		popular := l.serverLog(name)
		fmt.Printf("%s-like: top-10%% of resources draw %s of requests (paper: ~85%%); "+
			"resources with >=10 accesses cover %s of requests (paper: 98-99%%)\n",
			name, metrics.Pct(raw.TopResourceShare(0.10)),
			metrics.Pct(float64(len(popular))/float64(len(raw))))
	}
}

// runTable1 reproduces Table 1: update fraction for probability-based
// volumes at p_t = 0.25, effective threshold 0.2, T = 300, C = 7200.
func runTable1(l *lab) {
	paper := map[string][4]string{
		"aiusa":  {"6.5%", "3.6% (55%)", "2.0% (31%)", "2.9"},
		"apache": {"11.5%", "5.4% (47%)", "2.2% (19%)", "1.6"},
		"sun":    {"23.7%", "9.6% (41%)", "11.0% (46%)", "5.0"},
	}
	tbl := &metrics.Table{Header: []string{
		"Server Log", "prev<2hr", "prev<5min", "piggyback-updated", "avg piggyback",
		"| paper:", "prev<2hr", "prev<5min", "updated", "avg"}}
	for _, name := range []string{"aiusa", "apache", "sun"} {
		log := l.serverLog(name)
		vols := l.baseProb(name).WithPt(0.25).Thin(log, 0.2)
		r := sim.New(sim.Config{T: 300, Provider: vols}).Run(log)
		prevC := r.FracPrevWithinC()
		prevT := r.FracPrevWithinT()
		updTC := r.FracUpdatedTC()
		pctOf := func(x float64) string {
			if prevC == 0 {
				return "-"
			}
			return metrics.Pct(x / prevC)
		}
		p := paper[name]
		tbl.AddRow(name+"-like",
			metrics.Pct(prevC),
			fmt.Sprintf("%s (%s)", metrics.Pct(prevT), pctOf(prevT)),
			fmt.Sprintf("%s (%s)", metrics.Pct(updTC), pctOf(updTC)),
			r.AvgPiggybackSize(),
			"|", p[0], p[1], p[2], p[3])
	}
	fmt.Print(tbl.String())
	fmt.Println("update rate = prev<5min + piggyback-updated (paper: Sun 20.6%)")
}

// runAblation exercises the design choices DESIGN.md calls out.
func runAblation(l *lab) {
	log := l.serverLog("aiusa")

	// 1. Sampled pair counters: memory vs accuracy.
	fmt.Println("-- sampled counter creation (Sec 3.3.1) --")
	exact := core.NewProbBuilder(core.ProbConfig{T: 300, Pt: 0.25})
	exact.ObserveLog(log)
	tbl := &metrics.Table{Header: []string{"builder", "pair counters", "fraction predicted", "avg piggyback"}}
	ev := exact.Build(0.02)
	ev.Pt = 0.25
	r := sim.New(sim.Config{T: 300, Provider: ev}).Run(log)
	tbl.AddRow("exact", exact.NumCounters(), r.FractionPredicted(), r.AvgPiggybackSize())
	for _, k := range []float64{4, 1} {
		b := core.NewProbBuilder(core.ProbConfig{T: 300, Pt: 0.25, Sampling: true, SampleK: k, Seed: 11})
		b.ObserveLog(log)
		v := b.Build(0.02)
		v.Pt = 0.25
		r := sim.New(sim.Config{T: 300, Provider: v}).Run(log)
		tbl.AddRow(fmt.Sprintf("sampled K=%g", k), b.NumCounters(), r.FractionPredicted(), r.AvgPiggybackSize())
	}
	fmt.Print(tbl.String())

	// 2. Move-to-front vs FIFO ordering in directory volumes.
	fmt.Println("-- move-to-front vs FIFO (Sec 3.2.1) --")
	// A tight server-side cap makes ordering matter: with room for only
	// 5 elements, move-to-front keeps the hot ones in the message.
	tbl2 := &metrics.Table{Header: []string{"ordering", "fraction predicted", "true prediction", "avg piggyback"}}
	for _, mtf := range []bool{true, false} {
		d := core.NewDirVolumes(core.DirConfig{Level: 1, MTF: mtf, ServerMaxPiggy: 5})
		r := sim.New(sim.Config{T: 300, Provider: d}).Run(log)
		name := "fifo"
		if mtf {
			name = "move-to-front"
		}
		tbl2.AddRow(name, r.FractionPredicted(), r.TruePredictionFraction(), r.AvgPiggybackSize())
	}
	fmt.Print(tbl2.String())

	// 3. Replacement policies with and without piggyback pinning.
	fmt.Println("-- cache replacement (Sec 4) --")
	capacity := int64(64 << 10) // tight cache to force evictions
	tbl3 := &metrics.Table{Header: []string{"policy", "hit rate", "byte hit rate", "evictions", "pinned saves"}}
	newDir := func() core.Provider {
		return core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true, ServerMaxPiggy: 10})
	}
	runs := []struct {
		name     string
		policy   cache.Policy
		provider core.Provider
	}{
		{"lru", cache.LRU{}, nil},
		{"lfu", cache.LFU{}, nil},
		{"gdsize", &cache.GDSize{}, nil},
		{"piggyback-lru", cache.PiggybackLRU{}, newDir()},
		{"server-gd", &cache.ServerGD{}, newDir()},
	}
	for _, rn := range runs {
		res := sim.ReplayReplacement(log, capacity, rn.policy, rn.provider, 300)
		tbl3.AddRow(rn.name, res.HitRate, res.ByteHitRate, res.Evictions, res.PinnedSaves)
	}
	fmt.Print(tbl3.String())
}

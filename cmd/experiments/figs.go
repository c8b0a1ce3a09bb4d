package main

import (
	"fmt"

	"piggyback/internal/core"
	"piggyback/internal/metrics"
	"piggyback/internal/sim"
	"piggyback/internal/trace"
)

// dirSim replays a server log against fresh directory volumes.
func dirSim(log trace.Log, level, minAccess, maxPiggy int, rpvTimeout int64, T int64) sim.Result {
	d := core.NewDirVolumes(core.DirConfig{Level: level, MTF: true, ServerMaxPiggy: maxPiggy})
	return sim.New(sim.Config{
		T:          T,
		Provider:   d,
		BaseFilter: core.Filter{MinAccess: minAccess},
		RPVTimeout: rpvTimeout,
	}).Run(log)
}

// runFig1 reproduces Fig 1: spacing of requests within directory-based
// volumes for an AT&T-like proxy trace.
func runFig1(l *lab) {
	log := l.clientLog("att")
	levels := []int{0, 1, 2, 3, 4}
	paperSeen := []string{"98.5%", "91.8%", "78.0%", "66.3%", "61.6%"}
	paperMed := []string{"0.9s", "1.5s", "19.7s", "766.2s", "1812.0s"}

	fmt.Println("-- Fig 1(a): directory prefix statistics --")
	tbl := &metrics.Table{Header: []string{"Level", "% Seen Before", "Median Interarrival", "| paper:", "%Seen", "Median"}}
	stats := sim.AnalyzeLocality(log, levels, true)
	for i, st := range stats {
		tbl.AddRow(st.Level, metrics.Pct(st.SeenBefore),
			fmt.Sprintf("%.1fs", st.MedianInterarrival),
			"|", paperSeen[i], paperMed[i])
	}
	fmt.Print(tbl.String())

	fmt.Println("-- Fig 1(b): CDF of interarrival times (P[gap <= x]) --")
	cdfXs := []float64{1, 10, 50, 100, 1000, 7200}
	tbl2 := &metrics.Table{Header: []string{"Level", "1s", "10s", "50s", "100s", "1000s", "2hr"}}
	for _, st := range stats {
		row := []interface{}{st.Level}
		for _, x := range cdfXs {
			row = append(row, metrics.Pct(st.PredictableWithin(x)))
		}
		tbl2.AddRow(row...)
	}
	fmt.Print(tbl2.String())
	two := stats[2]
	fmt.Printf("level-2 volumes: %s of accesses within 50s of a same-volume request (paper: >55%%); %s within 2hr (paper: >82%%)\n",
		metrics.Pct(two.PredictableWithin(50)), metrics.Pct(two.PredictableWithin(7200)))

	fmt.Println("-- Fig 1 with embedded images removed --")
	noEmb := sim.AnalyzeLocality(log, levels, false)
	tbl3 := &metrics.Table{Header: []string{"Level", "% Seen Before", "Median Interarrival", "median change"}}
	for i, st := range noEmb {
		change := "-"
		if stats[i].MedianInterarrival > 0 {
			change = fmt.Sprintf("%+.0f%%", 100*(st.MedianInterarrival-stats[i].MedianInterarrival)/stats[i].MedianInterarrival)
		}
		tbl3.AddRow(st.Level, metrics.Pct(st.SeenBefore), fmt.Sprintf("%.1fs", st.MedianInterarrival), change)
	}
	fmt.Print(tbl3.String())
	fmt.Println("(paper: medians rise 10-20% and the distributions keep their shape)")
}

// fig2Filters is the access-filter sweep. The paper sweeps 1..5000 on logs
// of up to 13M requests; scaled-down logs hit the same relative thresholds
// at proportionally smaller absolute counts, so the axis stops at 1000.
var fig2Filters = []int{1, 2, 5, 10, 25, 50, 100, 250, 1000}

// runFig2 reproduces Fig 2: average piggyback size vs access filter for
// directory-based volumes, AIUSA-like and Sun-like logs.
func runFig2(l *lab) {
	for _, name := range []string{"aiusa", "sun"} {
		log := l.serverLog(name)
		levels := []int{0, 1, 2}
		if name == "sun" {
			// The paper skips 0-level for Sun: it would be a single
			// 29,436-element volume.
			levels = []int{1, 2, 3}
		}
		fmt.Printf("-- Fig 2 (%s-like): avg piggyback size vs access filter --\n", name)
		header := []string{"filter"}
		for _, lv := range levels {
			header = append(header, fmt.Sprintf("level %d", lv))
		}
		tbl := &metrics.Table{Header: header}
		for _, f := range fig2Filters {
			row := []interface{}{f}
			for _, lv := range levels {
				r := dirSim(log, lv, f, 0, 0, 300)
				size := r.AvgPiggybackSize()
				if size > 200 {
					// Paper: "graphed the region with an average
					// piggyback size of less than 200".
					row = append(row, fmt.Sprintf(">200 (%.0f)", size))
				} else {
					row = append(row, size)
				}
			}
			tbl.AddRow(row...)
		}
		fmt.Print(tbl.String())
	}
	fmt.Println("(paper: sizes drop dramatically with deeper prefixes and stronger filters;")
	fmt.Println(" Sun 1-level < 20 elements at filter 5000)")
}

// runFig3 reproduces Fig 3: accuracy of directory-based volumes — fraction
// predicted and update fraction vs average piggyback size.
func runFig3(l *lab) {
	for _, name := range []string{"sun", "aiusa"} {
		log := l.serverLog(name)
		levels := []int{1, 2}
		fmt.Printf("-- Fig 3(a) (%s-like): fraction predicted vs avg piggyback size --\n", name)
		tbl := &metrics.Table{Header: []string{"level", "filter", "avg piggyback", "fraction predicted"}}
		for _, lv := range levels {
			for _, f := range fig2Filters {
				r := dirSim(log, lv, f, 0, 0, 300)
				if r.AvgPiggybackSize() > 200 {
					continue
				}
				tbl.AddRow(lv, f, r.AvgPiggybackSize(), r.FractionPredicted())
			}
		}
		fmt.Print(tbl.String())

		fmt.Printf("-- Fig 3(b) (%s-like): update fraction (5-min and 15-min windows) --\n", name)
		tbl2 := &metrics.Table{Header: []string{"level", "filter", "avg piggyback", "update (T=5min)", "update (T=15min)"}}
		for _, lv := range levels {
			for _, f := range []int{10, 100, 1000} {
				r5 := dirSim(log, lv, f, 0, 0, 300)
				r15 := dirSim(log, lv, f, 0, 0, 900)
				if r5.AvgPiggybackSize() > 200 {
					continue
				}
				tbl2.AddRow(lv, f, r5.AvgPiggybackSize(), r5.UpdateFraction(), r15.UpdateFraction())
			}
		}
		fmt.Print(tbl2.String())
	}
	fmt.Println("(paper: Sun 1-/2-level predict ~60% at ~30 elements; AIUSA peaks ~80% with")
	fmt.Println(" smaller piggybacks; Sun update ~20% at 5min, slightly more at 15min;")
	fmt.Println(" AIUSA/Apache update 5-10%)")
}

// runFig4 reproduces Fig 4: enforcing a minimum time between piggybacks via
// the RPV list, Apache-like log.
func runFig4(l *lab) {
	log := l.serverLog("apache")
	timeouts := []int64{0, 5, 10, 30, 60, 120}
	fmt.Println("-- Fig 4 (apache-like): RPV minimum time between piggybacks --")
	tbl := &metrics.Table{Header: []string{"level", "filter", "rpv timeout", "avg size/response", "fraction predicted", "piggyback msgs", "size/msg"}}
	for _, lv := range []int{0, 1} {
		for _, f := range []int{10, 50} {
			for _, to := range timeouts {
				r := dirSim(log, lv, f, 0, to, 300)
				// Fig 4(a)'s "average piggyback size" spreads the
				// elements over every response: the RPV list thins
				// whole messages, not elements within them.
				tbl.AddRow(lv, f, to, r.AvgPiggybackSizePerRequest(), r.FractionPredicted(), r.PiggybackMessages, r.AvgPiggybackSize())
			}
		}
	}
	fmt.Print(tbl.String())
	fmt.Println("(paper: RPV sharply cuts piggyback traffic with no significant recall loss;")
	fmt.Println(" a 30-second minimum achieves most of the reduction)")
}

var ptSweep = []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.7, 0.9}

// probEval runs one probability-volume simulation.
func probEval(log trace.Log, v *core.ProbVolumes) sim.Result {
	return sim.New(sim.Config{T: 300, Provider: v}).Run(log)
}

// runFig5 reproduces Fig 5: fraction predicted vs probability threshold,
// and the distribution of implication probabilities, Sun-like log.
func runFig5(l *lab) {
	log := l.serverLog("sun")
	base := l.baseProb("sun")
	eff1 := base.Thin(log, 0.1)
	eff2 := base.Thin(log, 0.2)
	combined := base.RestrictSameDir(1)

	fmt.Println("-- Fig 5(a) (sun-like): fraction predicted vs probability threshold --")
	tbl := &metrics.Table{Header: []string{"p_t", "base", "effective 0.1", "effective 0.2", "combined (1-level)"}}
	for _, pt := range ptSweep {
		tbl.AddRow(pt,
			probEval(log, base.WithPt(pt)).FractionPredicted(),
			probEval(log, eff1.WithPt(pt)).FractionPredicted(),
			probEval(log, eff2.WithPt(pt)).FractionPredicted(),
			probEval(log, combined.WithPt(pt)).FractionPredicted())
	}
	fmt.Print(tbl.String())
	fmt.Println("(paper: thinning barely lowers the prediction rate)")

	fmt.Println("-- Fig 5(b): distribution of implication probabilities --")
	ps := base.ProbDistribution()
	cdf := metrics.NewCDF(ps)
	tbl2 := &metrics.Table{Header: []string{"p", "P[p_s|r <= p]"}}
	for _, x := range []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0} {
		tbl2.AddRow(x, cdf.P(x))
	}
	fmt.Print(tbl2.String())
	fmt.Printf("pairs: %d over %d resources\n", base.NumPairs(), base.Resources())

	st := base.WithPt(0.2).Stats(0.2)
	fmt.Printf("volume structure at p_t=0.2, T=300: self-members %s, symmetric %s (paper: ~1%% self, 3-18%% symmetric)\n",
		metrics.Pct(float64(st.SelfMembers)/float64(maxInt(st.Resources, 1))),
		metrics.Pct(float64(st.SymmetricPairs)/float64(maxInt(st.Pairs, 1))))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// runFig6 reproduces Fig 6: fraction predicted vs average piggyback size
// for probability volumes, AIUSA-like and Sun-like logs.
func runFig6(l *lab) {
	for _, name := range []string{"aiusa", "sun"} {
		log := l.serverLog(name)
		base := l.baseProb(name)
		eff2 := base.Thin(log, 0.2)
		combined := base.RestrictSameDir(1)
		fmt.Printf("-- Fig 6 (%s-like): recall vs avg piggyback size --\n", name)
		tbl := &metrics.Table{Header: []string{"p_t", "variant", "avg piggyback", "fraction predicted"}}
		for _, pt := range ptSweep {
			for _, v := range []struct {
				name string
				vols *core.ProbVolumes
			}{{"base", base}, {"effective 0.2", eff2}, {"combined", combined}} {
				r := probEval(log, v.vols.WithPt(pt))
				tbl.AddRow(pt, v.name, r.AvgPiggybackSize(), r.FractionPredicted())
			}
		}
		fmt.Print(tbl.String())
	}
	fmt.Println("(paper: probability volumes reach a given recall with smaller piggybacks than")
	fmt.Println(" directory volumes (Fig 3a); thinning cuts size further, most for Sun)")
}

// runFig7 reproduces Fig 7: true prediction vs average piggyback size.
func runFig7(l *lab) {
	for _, name := range []string{"aiusa", "sun"} {
		log := l.serverLog(name)
		base := l.baseProb(name)
		eff2 := base.Thin(log, 0.2)
		fmt.Printf("-- Fig 7 (%s-like): precision vs avg piggyback size --\n", name)
		tbl := &metrics.Table{Header: []string{"p_t", "variant", "avg piggyback", "true prediction"}}
		for _, pt := range ptSweep {
			for _, v := range []struct {
				name string
				vols *core.ProbVolumes
			}{{"base", base}, {"effective 0.2", eff2}} {
				r := probEval(log, v.vols.WithPt(pt))
				tbl.AddRow(pt, v.name, r.AvgPiggybackSize(), r.TruePredictionFraction())
			}
		}
		fmt.Print(tbl.String())
	}
	fmt.Println("(paper: smaller piggybacks should be more precise; the Sun base curve is")
	fmt.Println(" non-monotonic — high-implication/low-effectiveness pairs — and effective")
	fmt.Println(" thinning restores monotonicity)")
}

// runFig8 reproduces Fig 8: precision vs recall for volumes thinned at
// effective probability 0.2.
func runFig8(l *lab) {
	fmt.Println("-- Fig 8: precision vs recall (effective threshold 0.2) --")
	tbl := &metrics.Table{Header: []string{"log", "p_t", "recall (fraction predicted)", "precision (true prediction)"}}
	for _, name := range []string{"aiusa", "apache", "sun"} {
		log := l.serverLog(name)
		eff2 := l.baseProb(name).Thin(log, 0.2)
		for _, pt := range ptSweep {
			r := probEval(log, eff2.WithPt(pt))
			tbl.AddRow(name+"-like", pt, r.FractionPredicted(), r.TruePredictionFraction())
		}
	}
	fmt.Print(tbl.String())
	fmt.Println("(paper: precision falls as recall rises; effective-0.2 volumes gave the best")
	fmt.Println(" tradeoff for a given piggyback size)")
}

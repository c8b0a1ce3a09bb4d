package main

import (
	"fmt"
	"math"

	"piggyback/internal/core"
	"piggyback/internal/metrics"
	"piggyback/internal/sim"
	"piggyback/internal/tracegen"
)

// runSeeds checks that the headline results are properties of the workload
// *shape*, not artifacts of one random seed: the AIUSA-like profile is
// regenerated under several seeds and the key metrics re-measured.
func runSeeds(l *lab) {
	seeds := []int64{0, 101, 202, 303}
	type row struct {
		pred, prec, size, updTC float64
	}
	var rows []row
	for _, off := range seeds {
		cfg := tracegen.ProfileAIUSA(l.scale)
		cfg.Seed += off
		log, _ := tracegen.GenerateServerLog(cfg)
		log = log.Clean().FilterPopular(10)
		b := core.NewProbBuilder(core.ProbConfig{T: 300, Pt: 0.05})
		b.ObserveLog(log)
		vols := b.Build(0.02).WithPt(0.25).Thin(log, 0.2)
		r := sim.New(sim.Config{T: 300, Provider: vols}).Run(log)
		rows = append(rows, row{
			pred:  r.FractionPredicted(),
			prec:  r.TruePredictionFraction(),
			size:  r.AvgPiggybackSize(),
			updTC: r.FracUpdatedTC(),
		})
	}
	tbl := &metrics.Table{Header: []string{"seed offset", "fraction predicted", "true prediction", "avg piggyback", "piggyback-updated"}}
	for i, r := range rows {
		tbl.AddRow(seeds[i], r.pred, r.prec, r.size, r.updTC)
	}
	fmt.Print(tbl.String())

	meanSD := func(get func(row) float64) (float64, float64) {
		var sum, sq float64
		for _, r := range rows {
			v := get(r)
			sum += v
			sq += v * v
		}
		n := float64(len(rows))
		mean := sum / n
		return mean, math.Sqrt(sq/n - mean*mean)
	}
	mp, sp := meanSD(func(r row) float64 { return r.pred })
	mt, st := meanSD(func(r row) float64 { return r.prec })
	fmt.Printf("fraction predicted: %.3f ± %.3f; true prediction: %.3f ± %.3f over %d seeds\n",
		mp, sp, mt, st, len(seeds))
	if sp < 0.05 && st < 0.05 {
		fmt.Println("headline metrics are stable across workload seeds")
	} else {
		fmt.Println("WARNING: metrics vary noticeably across seeds")
	}
}

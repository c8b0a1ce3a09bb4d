package main

import (
	"bytes"
	"testing"

	"piggyback/internal/cache"
	"piggyback/internal/core"
	"piggyback/internal/sim"
	"piggyback/internal/tracegen"
)

// Benchmarks: one per table and figure of the paper, plus the ablations
// and extensions DESIGN.md calls out. Each runs a scaled-down version of
// the corresponding experiment and reports its headline metric via
// b.ReportMetric, so `go test -run '^$' -bench . ./cmd/experiments/`
// regenerates the shape of the entire evaluation.

// benchScale keeps per-iteration work small; the experiments command runs
// the full-scale versions.
const benchScale = 0.05

// benchLab generates each log and base volume set once, on first use,
// for all the benchmarks.
var benchLab = newLab(benchScale)

func reportSim(b *testing.B, r sim.Result) {
	b.Helper()
	b.ReportMetric(r.FractionPredicted(), "fracPredicted")
	b.ReportMetric(r.TruePredictionFraction(), "truePrediction")
	b.ReportMetric(r.AvgPiggybackSize(), "avgPiggyback")
}

func BenchmarkFig1DirectoryLocality(b *testing.B) {
	log := benchLab.clientLog("att")
	for i := 0; i < b.N; i++ {
		stats := sim.AnalyzeLocality(log, []int{0, 1, 2, 3, 4}, true)
		b.ReportMetric(stats[2].SeenBefore, "level2SeenBefore")
	}
}

func BenchmarkFig2PiggybackSizeVsFilter(b *testing.B) {
	log := benchLab.serverLog("aiusa")
	for i := 0; i < b.N; i++ {
		var last sim.Result
		for _, f := range []int{10, 100} {
			d := core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true})
			last = sim.New(sim.Config{T: 300, Provider: d,
				BaseFilter: core.Filter{MinAccess: f}}).Run(log)
		}
		b.ReportMetric(last.AvgPiggybackSize(), "avgPiggyback@filter100")
	}
}

func BenchmarkFig3DirVolumeAccuracy(b *testing.B) {
	log := benchLab.serverLog("sun")
	for i := 0; i < b.N; i++ {
		d := core.NewDirVolumes(core.DirConfig{Level: 2, MTF: true})
		r := sim.New(sim.Config{T: 300, Provider: d,
			BaseFilter: core.Filter{MinAccess: 10}}).Run(log)
		reportSim(b, r)
		b.ReportMetric(r.UpdateFraction(), "updateFraction")
	}
}

func BenchmarkFig4RPVThinning(b *testing.B) {
	log := benchLab.serverLog("apache")
	for i := 0; i < b.N; i++ {
		d := core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true})
		r := sim.New(sim.Config{T: 300, Provider: d,
			BaseFilter: core.Filter{MinAccess: 10},
			RPVTimeout: 30}).Run(log)
		b.ReportMetric(float64(r.PiggybackMessages), "piggybackMsgs")
		b.ReportMetric(r.FractionPredicted(), "fracPredicted")
	}
}

func BenchmarkFig5ProbThreshold(b *testing.B) {
	log := benchLab.serverLog("sun")
	base := benchLab.baseProb("sun")
	for i := 0; i < b.N; i++ {
		r := sim.New(sim.Config{T: 300, Provider: base.WithPt(0.2)}).Run(log)
		reportSim(b, r)
	}
}

func BenchmarkFig6ProbRecallVsSize(b *testing.B) {
	log := benchLab.serverLog("aiusa")
	base := benchLab.baseProb("aiusa")
	for i := 0; i < b.N; i++ {
		thinned := base.Thin(log, 0.2)
		r := sim.New(sim.Config{T: 300, Provider: thinned.WithPt(0.25)}).Run(log)
		reportSim(b, r)
	}
}

func BenchmarkFig7Precision(b *testing.B) {
	log := benchLab.serverLog("sun")
	base := benchLab.baseProb("sun")
	thinned := base.Thin(log, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := sim.New(sim.Config{T: 300, Provider: thinned.WithPt(0.25)}).Run(log)
		b.ReportMetric(r.TruePredictionFraction(), "truePrediction")
		b.ReportMetric(r.AvgPiggybackSize(), "avgPiggyback")
	}
}

func BenchmarkFig8PrecisionRecall(b *testing.B) {
	log := benchLab.serverLog("apache")
	thinned := benchLab.baseProb("apache").Thin(log, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := sim.New(sim.Config{T: 300, Provider: thinned.WithPt(0.3)}).Run(log)
		b.ReportMetric(r.FractionPredicted(), "recall")
		b.ReportMetric(r.TruePredictionFraction(), "precision")
	}
}

func BenchmarkTable1UpdateFraction(b *testing.B) {
	log := benchLab.serverLog("sun")
	vols := benchLab.baseProb("sun").WithPt(0.25).Thin(log, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := sim.New(sim.Config{T: 300, Provider: vols}).Run(log)
		b.ReportMetric(r.FracPrevWithinC(), "prevWithin2hr")
		b.ReportMetric(r.FracUpdatedTC(), "piggybackUpdated")
	}
}

func BenchmarkTable2ClientLogs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		log, _ := tracegen.GenerateClientLog(tracegen.ProfileATT(benchScale))
		b.ReportMetric(float64(log.UniqueResources()), "uniqueResources")
	}
}

func BenchmarkTable3ServerLogs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		log, _ := tracegen.GenerateServerLog(tracegen.ProfileAIUSA(benchScale))
		b.ReportMetric(float64(len(log))/float64(log.Clients()), "reqPerSource")
	}
}

func BenchmarkSec23Overheads(b *testing.B) {
	log := benchLab.serverLog("sun")
	vols := benchLab.baseProb("sun").WithPt(0.25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := sim.New(sim.Config{T: 300, Provider: vols}).Run(log)
		b.ReportMetric(r.AvgPiggybackBytes(), "piggybackBytes")
	}
}

func BenchmarkSec4Applications(b *testing.B) {
	log := benchLab.serverLog("apache")
	thinned := benchLab.baseProb("apache").Thin(log, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := sim.PrefetchTradeoff(log, thinned, []float64{0.25})
		b.ReportMetric(pts[0].Recall, "prefetchRecall")
		b.ReportMetric(pts[0].FutileFraction, "futileFraction")
	}
}

func BenchmarkAblationSampledCounters(b *testing.B) {
	log := benchLab.serverLog("aiusa")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := core.NewProbBuilder(core.ProbConfig{T: 300, Pt: 0.25, Sampling: true, SampleK: 2, Seed: 5})
		bld.ObserveLog(log)
		b.ReportMetric(float64(bld.NumCounters()), "pairCounters")
	}
}

func BenchmarkAblationMTFvsFIFO(b *testing.B) {
	log := benchLab.serverLog("aiusa")
	for _, mtf := range []bool{true, false} {
		name := "fifo"
		if mtf {
			name = "mtf"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := core.NewDirVolumes(core.DirConfig{Level: 1, MTF: mtf, ServerMaxPiggy: 5})
				r := sim.New(sim.Config{T: 300, Provider: d}).Run(log)
				b.ReportMetric(r.FractionPredicted(), "fracPredicted")
			}
		})
	}
}

func BenchmarkAblationReplacement(b *testing.B) {
	log := benchLab.serverLog("aiusa")
	policies := []struct {
		name   string
		make   func() cache.Policy
		piggyb bool
	}{
		{"lru", func() cache.Policy { return cache.LRU{} }, false},
		{"gdsize", func() cache.Policy { return &cache.GDSize{} }, false},
		{"piggyback-lru", func() cache.Policy { return cache.PiggybackLRU{} }, true},
	}
	for _, p := range policies {
		b.Run(p.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var prov core.Provider
				if p.piggyb {
					prov = core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true, ServerMaxPiggy: 10})
				}
				r := sim.ReplayReplacement(log, 64<<10, p.make(), prov, 300)
				b.ReportMetric(r.HitRate, "hitRate")
			}
		})
	}
}

func BenchmarkProbVolumePiggyback(b *testing.B) {
	vols := benchLab.baseProb("aiusa").WithPt(0.2)
	log := benchLab.serverLog("aiusa")
	f := core.Filter{MaxPiggy: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vols.Piggyback(log[i%len(log)].URL, int64(i), f)
	}
}

func BenchmarkProbBuilderObserve(b *testing.B) {
	log := benchLab.serverLog("aiusa")
	b.ResetTimer()
	bld := core.NewProbBuilder(core.ProbConfig{T: 300, Pt: 0.2})
	for i := 0; i < b.N; i++ {
		bld.Observe(log[i%len(log)])
	}
}

// Extension benches: hierarchical caching (§1) and the popular-resources
// fallback volume (§5).

func BenchmarkExtHierarchicalCaching(b *testing.B) {
	log := benchLab.serverLog("aiusa")
	for i := 0; i < b.N; i++ {
		vols := core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true, ServerMaxPiggy: 10})
		r := sim.ReplayHierarchy(log, sim.HierarchyConfig{Provider: vols, RPVTimeout: 60})
		b.ReportMetric(r.OriginLoad(), "originLoad")
		b.ReportMetric(float64(r.AvoidedValidations), "avoidedValidations")
	}
}

func BenchmarkExtPopularVolume(b *testing.B) {
	log := benchLab.serverLog("aiusa")
	for i := 0; i < b.N; i++ {
		inner := core.NewDirVolumes(core.DirConfig{Level: 2, MTF: true, ServerMaxPiggy: 10})
		pop := core.NewPopularProvider(inner, 10)
		r := sim.New(sim.Config{T: 300, Provider: pop,
			BaseFilter: core.Filter{MinAccess: 10}, RPVTimeout: 300}).Run(log)
		b.ReportMetric(r.FractionPredicted(), "fracPredicted")
	}
}

func BenchmarkExtVolumePersistence(b *testing.B) {
	vols := benchLab.baseProb("aiusa")
	var buf bytes.Buffer
	var written int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		n, err := vols.WriteTo(&buf)
		if err != nil {
			b.Fatal(err)
		}
		written = n
		if _, err := core.ReadProbVolumes(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(written), "bytes")
}

package main

import (
	"fmt"

	"piggyback/internal/core"
	"piggyback/internal/metrics"
	"piggyback/internal/sim"
)

// runHier evaluates the §1/§5 hierarchical-caching extension: a two-level
// proxy tree replaying each server workload, with and without piggyback
// coherency flowing from the origin through the parent to the children.
func runHier(l *lab) {
	fmt.Println("-- two-level proxy tree (4 children, LRU, Δ=900s) --")
	tbl := &metrics.Table{Header: []string{
		"log", "piggyback", "child hits", "parent hits", "origin load",
		"refreshes", "avoided validations"}}
	for _, name := range []string{"aiusa", "sun"} {
		log := l.serverLog(name)
		base := sim.ReplayHierarchy(log, sim.HierarchyConfig{})
		vols := core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true, ServerMaxPiggy: 10})
		with := sim.ReplayHierarchy(log, sim.HierarchyConfig{Provider: vols, RPVTimeout: 60})
		tbl.AddRow(name+"-like", "off", metrics.Pct(base.ChildHitRate()),
			metrics.Pct(base.ParentHitRate()), metrics.Pct(base.OriginLoad()),
			base.Refreshes, base.AvoidedValidations)
		tbl.AddRow(name+"-like", "on", metrics.Pct(with.ChildHitRate()),
			metrics.Pct(with.ParentHitRate()), metrics.Pct(with.OriginLoad()),
			with.Refreshes, with.AvoidedValidations)
	}
	fmt.Print(tbl.String())
	fmt.Println("(extension of §1: piggyback freshness propagates down the tree, cutting")
	fmt.Println(" origin load without shrinking Δ)")

	fmt.Println("-- popular-resources fallback volume (Sec 5) --")
	log := l.serverLog("aiusa")
	inner := core.NewDirVolumes(core.DirConfig{Level: 2, MTF: true, ServerMaxPiggy: 10})
	plainRes := sim.New(sim.Config{T: 300, Provider: inner,
		BaseFilter: core.Filter{MinAccess: 10}, RPVTimeout: 300}).Run(log)

	inner2 := core.NewDirVolumes(core.DirConfig{Level: 2, MTF: true, ServerMaxPiggy: 10})
	pop := core.NewPopularProvider(inner2, 10)
	popRes := sim.New(sim.Config{T: 300, Provider: pop,
		BaseFilter: core.Filter{MinAccess: 10}, RPVTimeout: 300}).Run(log)

	tbl2 := &metrics.Table{Header: []string{"provider", "fraction predicted", "avg piggyback", "piggyback msgs"}}
	tbl2.AddRow("dir volumes", plainRes.FractionPredicted(), plainRes.AvgPiggybackSize(), plainRes.PiggybackMessages)
	tbl2.AddRow("dir + popular fallback", popRes.FractionPredicted(), popRes.AvgPiggybackSize(), popRes.PiggybackMessages)
	fmt.Print(tbl2.String())
	fmt.Println("(the popular volume answers requests whose own volume has nothing to say;")
	fmt.Println(" the RPV list paces it like any other volume)")
}

package main

import "sort"

// layerMetrics fills in the per-layer ledger of a traced run: span medians
// and self times, isolated per-call costs, and counter ratios over the
// measured window. Every name is emitted on every workload; a layer the
// workload leaves idle reads 0.
func (m *measured) layerMetrics(out map[string]metric, tr *tracer, cap *captured, refRps float64) {
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	reqs := m.requests()
	perK := func(n int) float64 { return ratio(1000*float64(n), reqs) }

	// Spans.
	spans := tr.recorded()
	self := selfTimes(spans)
	dur := make(map[spanName][]int64)
	var hitRoot, hitLeg, hitServe, hitSelf, missServe, missSelf []int64
	for i := range spans {
		s := &spans[i]
		if s.end == 0 {
			continue
		}
		d := s.end - s.start
		switch s.name {
		case spProxyServe:
			if s.parent < 0 {
				continue
			}
			root := &spans[s.parent]
			switch {
			case s.outcome == outHit && root.end > 0:
				hitRoot = append(hitRoot, root.end-root.start)
				hitLeg = append(hitLeg, root.end-root.start-d)
				hitServe = append(hitServe, d)
				hitSelf = append(hitSelf, self[i])
			case s.outcome == outMiss:
				missServe = append(missServe, d)
				missSelf = append(missSelf, self[i])
			}
		case spClient, spBackground, spOriginExchange:
		default:
			dur[s.name] = append(dur[s.name], d)
		}
	}
	med := func(v []int64, p float64) float64 {
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		return float64(percentile(v, p))
	}
	us := func(v []int64) float64 { return med(v, 50) / 1e3 }

	parseReq, writeReq, readResp, writeResp := cap.wireCosts()
	clientLeg := us(hitLeg)
	set("client.request_hit_us", us(hitRoot), "us")
	set("httpwire.client_leg_us", clientLeg, "us")
	set("httpwire.parse_request_ns", parseReq, "ns")
	set("httpwire.write_response_ns", writeResp, "ns")
	set("httpwire.write_request_ns", writeReq, "ns")
	set("httpwire.read_response_ns", readResp, "ns")
	set("httpwire.unattributed_us", clientLeg-(parseReq+writeResp+writeReq+readResp)/1e3, "us")
	d := m.after.obs.Sub(m.before.obs)
	set("httpwire.server_writes_per_req", ratio(float64(d.Counter("wire.server.syscalls.writes")), reqs), "count")
	set("httpwire.server_reads_per_req", ratio(float64(d.Counter("wire.server.syscalls.reads")), reqs), "count")
	set("httpwire.upstream_dials", float64(d.Counter("wire.upstream.dials")), "count")
	set("httpwire.upstream_pool_waits", float64(d.Counter("wire.upstream.pool_waits")), "count")
	set("httpwire.upstream_conns_open", float64(m.after.obs.Counter("wire.upstream.conns_open")), "count")

	set("proxy.serve_hit_us", us(hitServe), "us")
	set("proxy.hit_self_us", us(hitSelf), "us")
	set("proxy.serve_upstream_us", us(missServe), "us")
	set("proxy.miss_overhead_us", us(missSelf), "us")

	px := diffProxy(m.after.px, m.before.px)
	set("proxy.fresh_hit_ratio", ratio(float64(px.FreshHits), float64(px.ClientRequests)), "ratio")
	set("proxy.validations_per_kreq", perK(px.Validations), "count")
	set("proxy.not_modified_ratio", ratio(float64(px.NotModified), float64(px.Validations)), "ratio")
	set("proxy.refreshes_per_kreq", perK(px.Refreshes), "count")
	set("proxy.invalidations_per_kreq", perK(px.Invalidations), "count")
	set("proxy.prefetch_useful_ratio", ratio(float64(px.UsefulPrefetches), float64(px.Prefetches)), "ratio")
	set("proxy.delta_updates_per_kreq", perK(px.DeltaUpdates), "count")
	originBytes := float64(m.after.wireBytes - m.before.wireBytes)
	set("proxy.delta_bytes_saved_ratio", ratio(float64(px.DeltaBytesSaved), originBytes+float64(px.DeltaBytesSaved)), "ratio")
	set("proxy.singleflight_shared", float64(px.SingleflightShared), "count")
	set("proxy.upstream_errors", float64(px.UpstreamErrors), "count")
	set("proxy.stale_serves", float64(px.StaleServes), "count")

	cs := diffStore(m.after.store, m.before.store)
	lookups := float64(cs.Hits + cs.Misses)
	var keys []string
	if n := m.st.tstore.lookups.Load(); n > 0 {
		keys = m.st.tstore.keys[:min(n, lookupSamples)]
	}
	set("cache.lookup_ns", lookupCost(m.st.store, keys, m.st.world.now()), "ns")
	set("cache.lookup_p99_ns", med(dur[spCacheLookup], 99), "ns")
	set("cache.put_ns", med(dur[spCachePut], 50), "ns")
	set("cache.apply_piggyback_ns", med(dur[spCacheApply], 50), "ns")
	set("cache.calls_per_req", ratio(float64(m.after.storeCall-m.before.storeCall), reqs), "count")
	set("cache.hit_ratio", ratio(float64(cs.Hits), lookups), "ratio")
	set("cache.evictions_per_kreq", perK(int(cs.Evictions)), "count")

	set("tiered.disk_hit_ratio", ratio(float64(cs.DiskHits), lookups), "ratio")
	set("tiered.promotions_per_kreq", perK(int(cs.Promotions)), "count")
	set("tiered.demotions_per_kreq", perK(int(cs.Demotions)), "count")
	set("tiered.demote_drops", float64(d.Counter("cache.tier.demote_drops")), "count")
	set("tiered.compactions", float64(cs.Compactions), "count")
	set("tiered.disk_mb", float64(m.after.store.DiskBytes)/1e6, "MB")

	sv := diffServer(m.after.origin, m.before.origin)
	set("server.serve_us", us(dur[spServerServe]), "us")
	set("server.piggyback_bytes_per_resp", ratio(float64(sv.PiggybackBytes), float64(sv.Requests)), "B")
	set("server.piggyback_elems_per_resp", ratio(float64(sv.PiggybackElems), float64(sv.Requests)), "count")
	set("server.deltas_sent_per_kreq", perK(sv.DeltasSent), "count")

	set("core.observe_ns", med(dur[spCoreObserve], 50), "ns")
	set("core.piggyback_ns", med(dur[spCorePiggyback], 50), "ns")
	set("core.piggyback_useful_ratio",
		ratio(float64(px.Refreshes+px.Invalidations+px.UsefulPrefetches), float64(sv.PiggybackElems)), "ratio")

	makeUs, applyUs, patchRatio := cap.deltaCosts()
	set("delta.make_us", makeUs, "us")
	set("delta.apply_us", applyUs, "us")
	set("delta.patch_ratio", patchRatio, "ratio")
	set("obs.observe_ns", observeCost(), "ns")

	// What the end-to-end ratios are made of, in the issue's own terms.
	verified := float64(len(m.win.latencies))
	set("origin_requests_per_kreq", perK(int(m.after.exchanges-m.before.exchanges)), "count")
	set("origin_bytes_per_req", ratio(originBytes, reqs), "B")
	set("stale_per_kreq", ratio(1000*float64(m.win.stale), verified), "count")
	set("origin.modifications_per_kreq", perK(int(m.after.mods-m.before.mods)), "count")

	mem0, mem1 := &m.before.mem, &m.after.mem
	set("process.allocs_per_req", ratio(float64(mem1.Mallocs-mem0.Mallocs), reqs), "count")
	set("process.alloc_bytes_per_req", ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc), reqs), "B")
	set("process.gc_pause_ms", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6, "ms")
	lat := append([]int64(nil), m.win.latencies...) // the slices keep their order
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	top := highestSupported(len(lat))
	set("client.latency_p999_us", float64(percentile(lat, 99.9))/1e3, "us")
	set("client.latency_top_pct", top, "%")
	set("client.latency_top_us", float64(percentile(lat, top))/1e3, "us")
	set("client.latency_samples", float64(len(lat)), "count")

	tracedRps, _, _ := m.win.rates()
	set("trace.throughput_rps", tracedRps, "req/s")
	set("trace.overhead_pct", 100*(1-ratio(tracedRps, refRps)), "%")
	set("trace.spans", float64(len(spans)), "count")
}

package main

import (
	"math/rand"
	"sort"
	"time"

	"piggyback/internal/tracegen"
)

// originHost is the Host every generated request names; the proxy resolves
// it to the origin's loopback listener.
const originHost = "origin.bench"

// maxBody mirrors the origin's body cap (internal/server serves at most
// 256 KiB of any resource).
const maxBody = 256 << 10

// workload is one traffic mix. The fields are the input properties the
// stack's behaviour depends on; nothing in the stack ever sees the name.
type workload struct {
	name string
	why  string
	// churn runs the origin under the virtual clock: the driver sets the
	// clock to each record's timestamp and applies the site's change
	// schedule as it advances, so Δ expires many times per run. Without
	// it the clock stands still and nothing ever expires.
	churn bool
	// piggy turns the paper's mechanisms on: Piggy-Filter on upstream
	// requests, prefetching, delta encoding. Off is the baseline proxy.
	piggy bool
	// diskTier serves from cache/tiered (ramBytes of RAM over diskBytes of
	// segment files) instead of a plain 64 MiB cache.Sharded.
	diskTier            bool
	ramBytes, diskBytes int64
	// delay is injected before every origin response — a stand-in for the
	// proxy↔origin WAN, present in traced and untraced runs alike.
	delay time.Duration
	// delta is the proxy's freshness interval Δ in (virtual) seconds.
	delta int64
	// warmup is how many records are replayed before the measured window;
	// the time they take is part of setup_s.
	warmup int
	// site shapes the generated site and the sessions that browse it. Its
	// Seed is fixed: the site is the workload's catalogue. The benchmark's
	// seed draws the requests (see generate).
	site func() tracegen.SiteConfig
}

// smallSite is tracegen's AIUSA profile (~1k resources) with bodies near the
// paper's 2 KB median and without the profile's heavy tail, so that
// per-message cost, not the few 100× bodies, sets every byte metric.
func smallSite() tracegen.SiteConfig {
	c := tracegen.ProfileAIUSA(1.0)
	c.HTMLMedian, c.HTMLMean = 2000, 2400
	c.ImageMedian, c.ImageMean = 2000, 2400
	return c
}

// churnSite is the site both churn twins replay: smallSite with the request
// log compressed to one week and change intervals of hours (spread
// 0.14×–7.4× per resource by tracegen, the heavy-tailed change-rate shape
// Dolgikh & Sukhov report), so that both expiry and modification happen
// hundreds of times inside one run.
func churnSite() tracegen.SiteConfig {
	c := smallSite()
	c.Requests = 120000
	c.Duration = 7 * 24 * 3600
	c.MeanChangeInterval = 16 * 3600
	return c
}

var workloads = []workload{
	{
		name:  "hit_small",
		why:   "small bodies, static origin, everything cached: per-message cost of httpwire, the proxy hit path and cache.Lookup; server, core, delta, tiered idle",
		piggy: true, delta: 10 * 365 * 24 * 3600, warmup: 20000,
		site: smallSite,
	},
	{
		name:  "churn_piggy",
		why:   "mutating origin under a virtual clock with piggybacking, prefetch and deltas on: server, core volumes, proxy.fetch, ApplyPiggyback, delta and the upstream client carry the load",
		churn: true, piggy: true, delay: time.Millisecond, delta: 3600, warmup: 3000,
		site: churnSite,
	},
	{
		name:  "churn_plain",
		why:   "the same requests, clock and mutations with the filter disabled: the paper's baseline proxy, If-Modified-Since validations where churn_piggy piggybacks",
		churn: true, delay: time.Millisecond, delta: 3600, warmup: 3000,
		site: churnSite,
	},
	{
		name:  "disk_large",
		why:   "32-256 KiB bodies over a 16 MiB RAM tier and a 128 MiB disk tier: per-byte cost, eviction, demotion, promotion, compaction, large upstream exchanges",
		piggy: true, diskTier: true, ramBytes: 16 << 20, diskBytes: 128 << 20,
		delta: 10 * 365 * 24 * 3600, warmup: 6000,
		site: func() tracegen.SiteConfig {
			c := tracegen.ProfileAIUSA(1.0)
			c.Pages = 1800 // ≈4k resources with shared images
			c.Dirs = 40
			c.HTMLMedian, c.HTMLMean = 80<<10, 96<<10
			c.ImageMedian, c.ImageMean = 80<<10, 96<<10
			return c
		},
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// resource is one generated resource as the driver knows it: what to ask
// for, what must come back, and when the origin's copy changes.
type resource struct {
	url string
	// bodyLen is the length every correct body has.
	bodyLen int
	gen     *tracegen.Resource
	// interval is the resource's change period in seconds, 0 when it never
	// changes. tracegen keeps it private; probeInterval recovers it.
	interval int64
}

// versionAt is the origin's Last-Modified for the resource at virtual time t.
func (r *resource) versionAt(t int64) int64 { return r.gen.LastModifiedAt(t) }

// record is one request of the replayed log.
type record struct {
	t   int64 // virtual request time, Unix seconds
	res int32 // index into inputs.resources
}

// inputs is everything generated from the seed. The stack receives the
// resources (as origin content) and the requests, never the seed.
type inputs struct {
	resources []resource
	records   []record
	// start is the virtual time the origin's content is initialised at;
	// lapSpan is added to every record time on each further pass over the
	// log, so virtual time keeps advancing however long a run lasts.
	start, lapSpan int64
}

// generate builds the workload's inputs from the seed. The site — which
// resources exist, how large, how linked, how often they change — comes from
// tracegen.BuildSite with the profile's own seed and is the same on every
// run; the seed draws the browsing sessions. (tracegen.GenerateServerLog ties
// both to one seed, and which page happens to be popular, large or
// image-heavy then moves every ratio by more than any change to the stack
// would.)
func (w *workload) generate(seed int64) *inputs {
	site := tracegen.BuildSite(w.site())
	in := &inputs{start: site.Config.StartTime, lapSpan: site.Config.Duration}
	index := make(map[*tracegen.Resource]int32, len(site.Resources))
	for _, r := range site.ResourceTable() {
		n := r.Size
		if n > maxBody {
			n = maxBody
		}
		index[r] = int32(len(in.resources))
		in.resources = append(in.resources, resource{
			url: r.URL, bodyLen: int(n), gen: r, interval: probeInterval(r, in.start),
		})
	}

	// Sessions as tracegen models them, minus what a proxy never sees
	// (client identity, browser-cache suppression): arrive at a uniform
	// time, enter at a Zipf-popular page, fetch its images seconds later,
	// follow a link after a think time or leave.
	cfg := &site.Config
	rng := rand.New(rand.NewSource(seed))
	entry := tracegen.NewZipf(rng, cfg.ZipfPages, len(site.Pages))
	in.records = make([]record, 0, cfg.Requests+64)
	for len(in.records) < cfg.Requests {
		t := in.start + rng.Int63n(cfg.Duration)
		for p := entry.Next(); ; {
			page := site.Pages[p]
			in.records = append(in.records, record{t, index[page.Res]})
			for _, img := range page.Images {
				t += 1 + int64(rng.ExpFloat64()*cfg.MeanImageGap)
				in.records = append(in.records, record{t, index[img]})
			}
			if len(page.Links) == 0 || rng.Float64() >= cfg.FollowLinkProb {
				break
			}
			p = page.Links[rng.Intn(len(page.Links))]
			t += 1 + int64(rng.ExpFloat64()*cfg.MeanThinkTime)
		}
	}
	in.records = in.records[:cfg.Requests]
	sort.SliceStable(in.records, func(i, j int) bool { return in.records[i].t < in.records[j].t })
	return in
}

// probeInterval recovers a resource's change period through the public
// LastModifiedAt: the last two ticks before a far-future instant are one
// period apart.
func probeInterval(r *tracegen.Resource, start int64) int64 {
	far := start + 100*365*24*3600
	last := r.LastModifiedAt(far)
	return last - r.LastModifiedAt(last-1)
}

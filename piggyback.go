// Package piggyback is an implementation of the end-to-end Web performance
// architecture of Cohen, Krishnamurthy, and Rexford, "Improving End-to-End
// Performance of the Web Using Server Volumes and Proxy Filters" (SIGCOMM
// 1998): servers group related resources into volumes, proxies send
// filters, and servers piggyback customized volume information (URL, size,
// Last-Modified) onto response messages as HTTP/1.1 chunked trailers. The
// proxy uses the piggybacked information for cache coherency, cache
// replacement, prefetching, adaptive freshness intervals, and informed
// fetching.
//
// The package re-exports what the commands under cmd/ and the programs
// under examples/ build on; everything else lives in internal/:
//
//   - Volume engines: NewDirVolumes (directory-based, §3.2) and
//     NewProbBuilder (probability-based with thinning, §3.3).
//   - Filters and piggyback messages: Filter, Message, SetFilter,
//     ExtractPiggyback.
//   - A from-scratch HTTP/1.1 wire layer with chunked trailers
//     (WireServer, WireClient, WireRequest, WireResponse) and its
//     telemetry (NewWireMetrics, EnablePprof).
//   - A cooperating origin server (NewOriginServer over a Store), a
//     caching proxy (NewProxy) over a RAM or RAM+disk cache
//     (NewShardedCache, NewTieredCache) with replacement policies, and a
//     transparent volume center (NewVolumeCenter).
//   - Synthetic workload generation (GenerateServerLog), Common Log Format
//     records, and the trace-driven evaluation harness (NewSimulator)
//     computing the paper's §3.1 metrics.
//
// See examples/ for runnable end-to-end setups and cmd/experiments for the
// harness that regenerates every table and figure in the paper.
package piggyback

import (
	"piggyback/internal/cache"
	"piggyback/internal/cache/tiered"
	"piggyback/internal/center"
	"piggyback/internal/core"
	"piggyback/internal/httpwire"
	"piggyback/internal/obs"
	"piggyback/internal/proxy"
	"piggyback/internal/server"
	"piggyback/internal/sim"
	"piggyback/internal/trace"
	"piggyback/internal/tracegen"
)

// Core protocol types (§2).
type (
	// Filter is a proxy-generated piggyback filter (§2.2).
	Filter = core.Filter
	// Message is a piggyback message: volume id plus elements (§2.3).
	Message = core.Message
	// Provider is a volume engine generating piggyback messages.
	Provider = core.Provider
)

// Volume engines (§3).
type (
	// DirConfig configures directory-based volumes (§3.2).
	DirConfig = core.DirConfig
	// DirVolumes is the directory-based volume engine.
	DirVolumes = core.DirVolumes
	// ProbConfig configures probability-based volume construction (§3.3).
	ProbConfig = core.ProbConfig
	// ProbBuilder estimates pairwise implication probabilities.
	ProbBuilder = core.ProbBuilder
)

// ParseFilter parses a Piggy-Filter header value.
func ParseFilter(s string) (Filter, error) { return core.ParseFilter(s) }

// ParseMessage parses a P-Volume trailer value.
func ParseMessage(s string) (Message, error) { return core.ParseMessage(s) }

// NewDirVolumes returns a directory-based volume engine.
func NewDirVolumes(cfg DirConfig) *DirVolumes { return core.NewDirVolumes(cfg) }

// NewProbBuilder returns a probability-volume builder.
func NewProbBuilder(cfg ProbConfig) *ProbBuilder { return core.NewProbBuilder(cfg) }

// HTTP/1.1 wire layer (§2.3).
type (
	// WireRequest is an HTTP/1.1 request message.
	WireRequest = httpwire.Request
	// WireResponse is an HTTP/1.1 response message with trailer support.
	WireResponse = httpwire.Response
	// WireServer serves HTTP/1.1 with persistent connections.
	WireServer = httpwire.Server
	// WireClient issues requests over persistent connections.
	WireClient = httpwire.Client
	// WireHandlerFunc adapts a context-taking function to the server's
	// handler; the per-request context is cancelled on connection
	// teardown and server shutdown.
	WireHandlerFunc = httpwire.HandlerFunc
)

// NewWireRequest returns a request for the given method and path.
func NewWireRequest(method, path string) *WireRequest { return httpwire.NewRequest(method, path) }

// NewWireClient returns a client with persistent connections.
func NewWireClient() *WireClient { return httpwire.NewClient() }

// SetFilter attaches a proxy filter (and TE: chunked) to a request.
func SetFilter(req *WireRequest, f Filter) { httpwire.SetFilter(req, f) }

// ExtractPiggyback parses the P-Volume trailer from a response.
func ExtractPiggyback(resp *WireResponse) (Message, bool) { return httpwire.ExtractPiggyback(resp) }

// PprofPathPrefix is the reserved origin-form path prefix serving live
// runtime profiles when EnablePprof(true) has been called.
const PprofPathPrefix = httpwire.PprofPathPrefix

// EnablePprof turns the /.piggy/pprof/ profiling endpoint on or off
// process-wide for every wire handler (server, proxy, volume center).
func EnablePprof(on bool) { httpwire.EnablePprof(on) }

// Telemetry: every wire-speaking component (origin, proxy, center)
// maintains a live registry and serves it as JSON on GET /.piggy/stats.
type (
	// ObsRegistry is that registry.
	ObsRegistry = obs.Registry
	// WireMetrics instruments a WireServer or WireClient (requests,
	// errors, retries, dials, bytes, latency histogram) into one.
	WireMetrics = obs.WireMetrics
)

// NewWireMetrics registers wire counters under prefix (e.g. "wire.server")
// in r and returns them for assignment to a WireServer/WireClient Obs
// field.
func NewWireMetrics(r *ObsRegistry, prefix string) *WireMetrics {
	return obs.NewWireMetrics(r, prefix)
}

// Origin server (§2.1).
type (
	// OriginServer is a cooperating piggybacking origin server.
	OriginServer = server.Server
	// Store is the origin's resource table.
	Store = server.Store
	// Resource is one origin resource.
	Resource = server.Resource
)

// NewStore returns an empty resource store.
func NewStore() *Store { return server.NewStore() }

// NewOriginServer returns an origin server over the store and volume
// engine; clock supplies the current Unix time (use func() int64 {
// return time.Now().Unix() } outside simulations).
func NewOriginServer(st *Store, vols Provider, clock func() int64) *OriginServer {
	return server.New(st, vols, clock)
}

// Caching proxy (§2.1, §4).
type (
	// Proxy is the caching piggybacking proxy. Proxies join a cooperative
	// mesh via ProxyConfig.PeerSelf/Peers: local misses route to the
	// key's consistent-hash ring owner before the origin (X-Cache: PEER).
	Proxy = proxy.Proxy
	// ProxyConfig parameterizes a proxy.
	ProxyConfig = proxy.Config
	// FetchItem is one pending (pre)fetch with piggybacked attributes.
	FetchItem = proxy.FetchItem
)

// NewProxy returns a caching proxy.
func NewProxy(cfg ProxyConfig) *Proxy { return proxy.New(cfg) }

// Caches and replacement policies (§4 cache replacement).
type (
	// Cache is the byte-capacity proxy cache (single-threaded; the
	// trace-driven simulators use it directly).
	Cache = cache.Cache
	// ShardedCache is the concurrent sharded cache the proxy serves from:
	// power-of-two shards keyed by URL hash, each with its own lock and
	// policy instance.
	ShardedCache = cache.Sharded
	// CacheEntry is one cached resource.
	CacheEntry = cache.Entry
	// CachePolicy assigns eviction priorities.
	CachePolicy = cache.Policy
	// LRU, LFU, GDSize, and PiggybackLRU are replacement policies.
	LRU          = cache.LRU
	LFU          = cache.LFU
	GDSize       = cache.GDSize
	PiggybackLRU = cache.PiggybackLRU
	// CacheStore is the cache surface the proxy serves from; Cache,
	// ShardedCache, and TieredCache all satisfy it, so ProxyConfig.Store
	// accepts any of them.
	CacheStore = cache.Store
	// TieredCache layers an append-only segment-file disk tier under a
	// ShardedCache: RAM evictions worth keeping demote to disk, disk
	// hits promote back to RAM, and Close snapshots the index so a
	// restarted proxy serves warm from the same directory.
	TieredCache = tiered.Tiered
	// TieredCacheConfig parameterizes a TieredCache.
	TieredCacheConfig = tiered.Config
)

// NewCache returns a cache with the given capacity and policy.
func NewCache(capacity int64, p CachePolicy) *Cache { return cache.New(capacity, p) }

// NewShardedCache returns a concurrent sharded cache. shards is rounded up
// to a power of two (zero means the smallest power of two covering the
// machine's CPUs, clamped to [8, 64]); each shard gets an independent
// policy instance derived from p (stateless built-ins shared, stateful
// ones cloned per shard, unknown implementations serialized behind one
// lock).
func NewShardedCache(capacity int64, shards int, p CachePolicy) *ShardedCache {
	return cache.NewSharded(capacity, shards, cache.PolicyFactory(p))
}

// NewTieredCache layers a disk tier under ram per cfg. An empty cfg.Dir
// yields a RAM-only store (a transparent wrapper). Close the returned
// store (directly or via the owning proxy's Close) to flush the RAM
// working set and snapshot the index for a warm restart.
func NewTieredCache(ram *ShardedCache, cfg TieredCacheConfig) (*TieredCache, error) {
	return tiered.New(ram, cfg)
}

// Transparent volume center (§1, §5).
type (
	// VolumeCenter is the transparent piggybacking intermediary.
	VolumeCenter = center.Center
	// CenterConfig parameterizes a volume center.
	CenterConfig = center.Config
)

// NewVolumeCenter returns a transparent volume center.
func NewVolumeCenter(cfg CenterConfig) *VolumeCenter { return center.New(cfg) }

// Traces and workloads (Appendix A).
type (
	// TraceRecord is one access-log entry.
	TraceRecord = trace.Record
	// TraceLog is a time-ordered access log.
	TraceLog = trace.Log
	// SiteConfig describes a synthetic site and client population.
	SiteConfig = tracegen.SiteConfig
	// Site is a generated resource tree.
	Site = tracegen.Site
)

// GenerateServerLog produces a synthetic server log and its site.
func GenerateServerLog(cfg SiteConfig) (TraceLog, *Site) { return tracegen.GenerateServerLog(cfg) }

// ParseCLF parses a Common Log Format line.
func ParseCLF(line string) (TraceRecord, error) { return trace.ParseCLF(line) }

// FormatCLF renders a record as a Common Log Format line.
func FormatCLF(r TraceRecord) string { return trace.FormatCLF(r) }

// LoadSite populates a store from a generated site — convenience for
// standing up an origin server on a synthetic workload.
func LoadSite(st *Store, site *Site) {
	for _, r := range site.ResourceTable() {
		st.Put(Resource{URL: r.URL, Size: r.Size, LastModified: r.LastModifiedAt(site.Config.StartTime)})
	}
}

// Evaluation harness (§3.1).
type (
	// Simulator replays a log through the piggyback protocol.
	Simulator = sim.Simulator
	// SimConfig parameterizes a simulation run.
	SimConfig = sim.Config
)

// NewSimulator returns a trace-driven protocol simulator.
func NewSimulator(cfg SimConfig) *Simulator { return sim.New(cfg) }

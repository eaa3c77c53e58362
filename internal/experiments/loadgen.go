// Fleet load simulation: many tenants through one proxy on the virtual
// clock. This is the deterministic arm of the fleet harness — the real-TCP
// arm is parcelnet's test helper runFleet — and exists so multi-tenant
// scaling numbers (latency percentiles, cache hit rate, egress per user) are
// exactly reproducible from a seed. bench/'s sim_fleet workload runs it.
package experiments

import (
	"time"

	"github.com/parcel-go/parcel/internal/core"
	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/metrics"
	"github.com/parcel-go/parcel/internal/objcache"
	"github.com/parcel-go/parcel/internal/resilience"
	"github.com/parcel-go/parcel/internal/scenario"
	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/webgen"
)

// LoadgenSimConfig describes one simulated fleet run.
type LoadgenSimConfig struct {
	// Tenants is the fleet size (concurrent sessions through one proxy).
	Tenants int
	// Pages is the distinct page count; tenants are assigned round-robin.
	Pages int
	// Seed controls page generation and the topology.
	Seed int64
	// Sched is the proxy's bundle schedule (default IND).
	Sched sched.Config
	// CacheBytes sizes the shared cross-session cache (0 disables it).
	CacheBytes int64
	// Stagger spaces tenant arrivals on the virtual clock (default 10 ms).
	Stagger time.Duration
	// QuietPeriod overrides the proxy's §4.5 window (default 500 ms — load
	// runs measure delivery, not the production completion heuristic).
	QuietPeriod time.Duration
	// Scenario overrides the topology defaults (zero value = defaults).
	Scenario scenario.Params

	// OriginFaults arms fault injection on every origin server (the chaos
	// arm). The zero value injects nothing and keeps the run bit-identical to
	// the pinned fleet figures (TestLoadgenSimFleet200).
	OriginFaults httpsim.OriginFaults
	// Resilience is the proxy's origin-fetch discipline: per-attempt
	// deadlines, retry budget, per-origin breakers. Zero fields take the
	// resilience defaults (see core.ProxyConfig.Resilience).
	Resilience resilience.Policy
	// CacheFreshFor is the shared cache's freshness window — entries older
	// than it revalidate at the origin and serve stale when the origin is
	// failing. 0 means entries never go stale.
	CacheFreshFor time.Duration
}

// LoadgenSimResult is a simulated fleet run's full measurement.
type LoadgenSimResult struct {
	Loads  []metrics.SessionLoad
	Report metrics.FleetReport
	Cache  objcache.Stats
	// Faults aggregates what every origin injected (all zero without
	// OriginFaults).
	Faults httpsim.OriginFaultStats
}

// LoadgenSim runs one fleet simulation: build the multi-tenant topology,
// start a proxy with the shared cache, release the tenants staggered, and
// drain the virtual clock. Deterministic: same config, same bits. Each call
// owns one scenario.Resources, so the fleet's session engines replay page
// scripts from the discovery memo exactly as sweep engines do.
func LoadgenSim(cfg LoadgenSimConfig) LoadgenSimResult {
	return loadgenSim(cfg, scenario.NewResources())
}

// loadgenSim is LoadgenSim on the given resources; nil pools builds the
// private fleet whose engines interpret every script (the memo-equivalence
// reference).
func loadgenSim(cfg LoadgenSimConfig, pools *scenario.Resources) LoadgenSimResult {
	if cfg.Tenants <= 0 {
		cfg.Tenants = 1
	}
	if cfg.Pages <= 0 {
		cfg.Pages = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Stagger == 0 {
		cfg.Stagger = 10 * time.Millisecond
	}
	if cfg.QuietPeriod == 0 {
		cfg.QuietPeriod = 500 * time.Millisecond
	}
	params := cfg.Scenario
	if params.LTERTT == 0 {
		params = scenario.DefaultParams()
	}
	params.Seed = cfg.Seed
	if cfg.OriginFaults.Active() {
		params.OriginFaults = cfg.OriginFaults
	}

	pages := webgen.Generate(webgen.Spec{Seed: cfg.Seed, NumPages: cfg.Pages})
	fleet := scenario.BuildFleet(pages, cfg.Tenants, params, pools)

	pc := core.DefaultProxyConfig()
	pc.Sched = cfg.Sched
	pc.QuietPeriod = cfg.QuietPeriod
	pc.Resilience = cfg.Resilience
	var cache *objcache.Cache
	if cfg.CacheBytes > 0 {
		cache = objcache.New(objcache.Config{
			Capacity: cfg.CacheBytes, FreshFor: cfg.CacheFreshFor,
			NegTTL: cfg.Resilience.WithDefaults().NegTTL,
		})
		pc.Cache = cache
	}
	proxy := core.StartProxy(fleet.Topology, pc)

	clients := make([]*core.LoadClient, cfg.Tenants)
	for i := range clients {
		url := pages[i%len(pages)].MainURL
		clients[i] = core.NewLoadClient(i, fleet.Sim, fleet.Tenants[i], fleet.Proxy, url)
		clients[i].StartAt(time.Duration(i) * cfg.Stagger)
	}
	fleet.Sim.Run()

	loads := make([]metrics.SessionLoad, cfg.Tenants)
	for i, c := range clients {
		loads[i] = c.SessionLoad()
	}
	res := LoadgenSimResult{Loads: loads, Report: metrics.Fleet(loads)}
	if cache != nil {
		res.Cache = cache.Stats()
	}
	res.Report.BreakerOpens = proxy.Resilience().Opens()
	for _, srv := range fleet.Origins {
		fs := srv.FaultStats()
		res.Faults.Errors += fs.Errors
		res.Faults.Stalls += fs.Stalls
		res.Faults.Partials += fs.Partials
		res.Faults.FlapErrors += fs.FlapErrors
	}
	return res
}

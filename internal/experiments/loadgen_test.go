package experiments

import (
	"reflect"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/discovery"
	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/metrics"
	"github.com/parcel-go/parcel/internal/resilience"
	"github.com/parcel-go/parcel/internal/sched"
)

// TestLoadgenSimSharedCache drives a simulated fleet through one proxy with
// the cross-session cache: every tenant completes, later tenants hit the
// cache, and the fleet's origin traffic collapses to one copy per object.
func TestLoadgenSimSharedCache(t *testing.T) {
	res := LoadgenSim(LoadgenSimConfig{
		Tenants:    40,
		Pages:      2,
		Seed:       7,
		Sched:      sched.ConfigIND,
		CacheBytes: 64 << 20,
	})
	r := res.Report
	if r.Sessions != 40 || r.Completed != 40 {
		t.Fatalf("completion: %+v", r)
	}
	if r.CacheHitRate <= 0.5 {
		t.Errorf("cache hit rate = %v over 40 tenants of 2 pages, want > 0.5", r.CacheHitRate)
	}
	if !(r.P50 > 0 && r.P50 <= r.P90 && r.P90 <= r.P99) {
		t.Errorf("percentiles unordered: p50=%v p90=%v p99=%v", r.P50, r.P90, r.P99)
	}
	if r.EgressPerSession <= 0 {
		t.Errorf("egress/session = %v", r.EgressPerSession)
	}
	if res.Cache.Hits == 0 {
		t.Errorf("cache never hit: %+v", res.Cache)
	}
	// Fault-free runs consume no resilience machinery, and arming the policy
	// changes nothing a tenant can observe: the deadline events it schedules
	// are all cancelled, and no retry, stale serve or breaker ever fires.
	armedCfg := chaosSimConfig()
	armedCfg.OriginFaults = httpsim.OriginFaults{}
	armed := LoadgenSim(armedCfg)
	if !reflect.DeepEqual(armed.Loads, res.Loads) {
		t.Error("arming the resilience policy moved a fault-free fleet run")
	}
	for _, rep := range []metrics.FleetReport{r, armed.Report} {
		if rep.Retries != 0 || rep.StaleServes != 0 || rep.BreakerOpens != 0 {
			t.Errorf("fault-free run consumed the resilience machinery: %+v", rep)
		}
	}
	// Cross-session dedup: with the cache, fleet origin bytes are far below
	// tenants × page weight — they equal what the earliest tenant of each
	// page pulled (plus any pre-hit concurrent fetches during warmup).
	var withCache int64
	for _, l := range res.Loads {
		withCache += l.OriginBytes
	}
	nocache := LoadgenSim(LoadgenSimConfig{
		Tenants: 40, Pages: 2, Seed: 7, Sched: sched.ConfigIND,
	})
	if nocache.Report.CacheHitRate != 0 {
		t.Errorf("cache disabled but hit rate = %v", nocache.Report.CacheHitRate)
	}
	if nocache.Report.Completed != 40 {
		t.Fatalf("uncached fleet completion: %+v", nocache.Report)
	}
	if withCache >= nocache.Report.OriginBytes/2 {
		t.Errorf("shared cache barely reduced origin traffic: %d cached vs %d uncached",
			withCache, nocache.Report.OriginBytes)
	}
}

// chaosSimConfig is the shared fixture for the sim-arm chaos tests: a fleet
// under a startup origin flap plus a steady error rate, with the resilient
// fetch path armed to carry sessions through.
func chaosSimConfig() LoadgenSimConfig {
	return LoadgenSimConfig{
		Tenants:    40,
		Pages:      2,
		Seed:       7,
		Sched:      sched.ConfigIND,
		CacheBytes: 64 << 20,
		OriginFaults: httpsim.OriginFaults{
			ErrorRate: 0.05,
			Flaps:     []httpsim.FlapWindow{{Start: 0, End: 300 * time.Millisecond}},
		},
		Resilience: resilience.Policy{
			Timeout:          10 * time.Second,
			MaxRetries:       5,
			BackoffBase:      200 * time.Millisecond,
			BackoffMax:       time.Second,
			FailureThreshold: 1 << 20,
		},
	}
}

// TestLoadgenSimChaos is the deterministic chaos arm: origin faults bite, the
// retry budget absorbs them, and every tenant still completes.
func TestLoadgenSimChaos(t *testing.T) {
	res := LoadgenSim(chaosSimConfig())
	r := res.Report
	if r.Completed != 40 {
		t.Fatalf("%d/40 tenants completed (%d failed) under origin faults", r.Completed, r.Failed)
	}
	total := res.Faults.Errors + res.Faults.Stalls + res.Faults.Partials + res.Faults.FlapErrors
	if total == 0 {
		t.Error("origins injected no faults")
	}
	if r.Retries == 0 {
		t.Error("resilient fetch path never retried")
	}
	if !(r.P50 > 0 && r.P50 <= r.P99) {
		t.Errorf("percentiles unordered: p50=%v p99=%v", r.P50, r.P99)
	}
}

// TestLoadgenSimFleet200 is the sim arm of the 200-tenant fleet gates (the
// TCP arm is parcelnet's fleet rows) and the in-module owner of the figures
// bench/'s sim_fleet workload reproduces at seed 1: the run is a pure function
// of its config, so the numbers are pinned exactly. A change that moves them
// changed the simulated system; say so and re-pin here and in bench/.
func TestLoadgenSimFleet200(t *testing.T) {
	fleet := LoadgenSimConfig{
		Tenants:    200,
		Pages:      4,
		Seed:       1,
		Sched:      sched.ConfigONLD,
		CacheBytes: 256 << 20,
	}
	chaos := fleet
	chaos.OriginFaults, chaos.Resilience = chaosSimConfig().OriginFaults, chaosSimConfig().Resilience
	rows := []struct {
		name     string
		cfg      LoadgenSimConfig
		p50, p99 time.Duration
		faults   int   // injected by the origins
		retries  int64 // fired by the proxy's resilient fetch path
		shared   int64 // fetches that joined another session's flight
	}{
		{name: "fleet", cfg: fleet, p50: 3857766994, p99: 11416513234, shared: 7366},
		{name: "chaos", cfg: chaos, p50: 3507430556, p99: 11622823023, faults: 22, retries: 22, shared: 9092},
	}
	// Retried fetches land in the same cache entries, so both rows pull the
	// same bytes from the origins at the same hit rate.
	const (
		p99Budget   = 30 * time.Second
		hitRate     = 0.9801311475409836
		originBytes = 5111690
		entries     = 308 // distinct objects across the four pages
	)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			res := LoadgenSim(row.cfg)
			r := res.Report
			if r.Sessions != 200 || r.Completed != 200 {
				t.Fatalf("%d/200 tenants completed (%d failed)", r.Completed, r.Failed)
			}
			if r.FallbackWriteErrors != 0 {
				t.Errorf("%d fallback writes silently failed", r.FallbackWriteErrors)
			}
			if r.P99 > p99Budget {
				t.Errorf("p99 %v exceeds budget %v", r.P99, p99Budget)
			}
			if f := res.Faults; f.Errors+f.Stalls+f.Partials+f.FlapErrors != row.faults {
				t.Errorf("origins injected %+v, want %d faults", f, row.faults)
			}
			if r.Retries != row.retries {
				t.Errorf("retries = %d, want %d", r.Retries, row.retries)
			}
			if r.P50 != row.p50 || r.P99 != row.p99 {
				t.Errorf("p50 = %d ns, p99 = %d ns; pinned %d and %d", r.P50, r.P99, row.p50, row.p99)
			}
			if r.CacheHitRate != hitRate || r.OriginBytes != originBytes {
				t.Errorf("hit rate = %v, origin bytes = %d; pinned %v and %d",
					r.CacheHitRate, r.OriginBytes, hitRate, originBytes)
			}
			if r.Deferred != 0 || r.Shed != 0 {
				t.Errorf("deferred = %d, shed = %d under an unbounded budget", r.Deferred, r.Shed)
			}
			// The cache's own books reconcile with the sessions': every miss
			// that did not join a flight led the one fetch that stored its
			// entry, nothing was served degraded, and a session hit is a
			// resident entry or a joined flight. Sessions book into their
			// completion note, so fetches landing after it (page timers) are on
			// the cache's books only.
			c := res.Cache
			if c.Shared != row.shared || c.Misses-c.Shared != entries || c.Entries != entries {
				t.Errorf("cache shared = %d, misses - shared = %d, entries = %d; pinned %d, %d, %d",
					c.Shared, c.Misses-c.Shared, c.Entries, row.shared, entries, entries)
			}
			if c.StaleServes != 0 || c.NegHits != 0 {
				t.Errorf("stale serves = %d, negative-cache hits = %d with every fault retried away", c.StaleServes, c.NegHits)
			}
			if r.CacheHits > c.Hits+c.Shared || r.CacheMisses > c.Misses-c.Shared {
				t.Errorf("sessions booked %d hits / %d misses, more than the cache's %d hits + %d shared / %d led",
					r.CacheHits, r.CacheMisses, c.Hits, c.Shared, c.Misses-c.Shared)
			}
		})
	}
}

// TestLoadgenSimOriginFaultProfiles is the CI chaos job's origin-fault
// matrix: each profile — outright errors, slow stalls, timed flaps — is run
// on its own (the job crosses the subtests with CHAOS_SEED), every tenant
// must complete through it, the profile's own fault kind must actually fire,
// and the run must reproduce bit-identically from the seed.
func TestLoadgenSimOriginFaultProfiles(t *testing.T) {
	profiles := []struct {
		name   string
		faults httpsim.OriginFaults
		fired  func(s httpsim.OriginFaultStats) int
	}{
		{"errors",
			httpsim.OriginFaults{ErrorRate: 0.25},
			func(s httpsim.OriginFaultStats) int { return s.Errors }},
		{"stalls",
			httpsim.OriginFaults{StallRate: 0.3, StallFor: 500 * time.Millisecond},
			func(s httpsim.OriginFaultStats) int { return s.Stalls }},
		{"flaps",
			httpsim.OriginFaults{Flaps: []httpsim.FlapWindow{
				{Start: 0, End: 300 * time.Millisecond},
				{Start: time.Second, End: 1200 * time.Millisecond},
			}},
			func(s httpsim.OriginFaultStats) int { return s.FlapErrors }},
	}
	for _, p := range profiles {
		t.Run(p.name, func(t *testing.T) {
			cfg := chaosSimConfig()
			cfg.Seed = chaosSeed()
			cfg.OriginFaults = p.faults
			res := LoadgenSim(cfg)
			if res.Report.Completed != cfg.Tenants {
				t.Fatalf("%d/%d tenants completed (%d failed) under %s profile, seed %d",
					res.Report.Completed, cfg.Tenants, res.Report.Failed, p.name, cfg.Seed)
			}
			if p.fired(res.Faults) == 0 {
				t.Errorf("%s profile injected none of its own fault kind: %+v", p.name, res.Faults)
			}
			if again := LoadgenSim(cfg); !reflect.DeepEqual(res, again) {
				t.Errorf("%s profile at seed %d not reproducible", p.name, cfg.Seed)
			}
		})
	}
}

// TestLoadgenSimChaosDeterministic pins that the chaos arm — fault RNG, retry
// backoff RNG and all — replays bit-identically from its seed.
func TestLoadgenSimChaosDeterministic(t *testing.T) {
	a := LoadgenSim(chaosSimConfig())
	b := LoadgenSim(chaosSimConfig())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two runs of one chaos LoadgenSimConfig produced different results")
	}
}

// TestLoadgenSimDeterministic pins the fleet simulation's reproducibility:
// same config, same bits — loads, report, and cache stats alike.
func TestLoadgenSimDeterministic(t *testing.T) {
	cfg := LoadgenSimConfig{
		Tenants:    25,
		Pages:      3,
		Seed:       11,
		Sched:      sched.ConfigONLD,
		CacheBytes: 32 << 20,
	}
	a := LoadgenSim(cfg)
	b := LoadgenSim(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two runs of one LoadgenSimConfig produced different results")
	}
}

// TestLoadgenSimReplaysScripts is the fleet twin of the crawler's memo
// equivalence suite, and the guard that keeps the fleet on the memo: every
// proxy session engine of a fleet replays page scripts from
// internal/discovery — each distinct program is interpreted for recording
// once however many tenants load its page — and the run is bit-identical to
// the same fleet with the memo bypassed (a private topology, whose engines
// interpret everything).
func TestLoadgenSimReplaysScripts(t *testing.T) {
	cfg := LoadgenSimConfig{
		Tenants:    40,
		Pages:      4,
		Seed:       5,
		Sched:      sched.ConfigONLD,
		CacheBytes: 64 << 20,
	}
	discovery.Reset()
	before := discovery.Stats()
	bypassed := loadgenSim(cfg, nil)
	if d := discovery.Stats(); d != before {
		t.Fatalf("memo-bypassed fleet touched the memo: %+v -> %+v", before, d)
	}

	memo := LoadgenSim(cfg)
	cold := discovery.Stats()
	if recorded := cold.Recorded - before.Recorded; recorded != uint64(cold.Programs) {
		t.Errorf("recorded %d scripts for %d distinct programs, want each once", recorded, cold.Programs)
	}
	if replayed, recorded := cold.Replayed-before.Replayed, cold.Recorded-before.Recorded; replayed < 5*recorded {
		t.Errorf("40 tenants on 4 pages replayed %d scripts against %d recorded, want replays >> records", replayed, recorded)
	}
	if !reflect.DeepEqual(memo, bypassed) {
		t.Error("fleet run on the discovery memo differs from the memo-bypassed run")
	}

	warm := LoadgenSim(cfg)
	if after := discovery.Stats(); after.Recorded != cold.Recorded || after.Programs != cold.Programs {
		t.Errorf("warm fleet run recorded again: %+v -> %+v", cold, after)
	}
	if !reflect.DeepEqual(warm, bypassed) {
		t.Error("warm-memo fleet run differs from the memo-bypassed run")
	}
}

// BenchmarkLoadgenSim is one small fleet run end to end (generation is
// memoised, so set-up is topology wiring only).
func BenchmarkLoadgenSim(b *testing.B) {
	cfg := LoadgenSimConfig{
		Tenants:    20,
		Pages:      4,
		Seed:       1,
		Sched:      sched.ConfigONLD,
		CacheBytes: 64 << 20,
	}
	LoadgenSim(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LoadgenSim(cfg)
	}
}

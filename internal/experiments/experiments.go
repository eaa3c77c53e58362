// Package experiments reproduces every table and figure of the paper's
// evaluation (§8): it builds topologies, runs the schemes over the page set,
// repeats runs the way the paper's rounds do (§7.2), and reduces the results
// to the series each figure plots. cmd/parcel-bench renders them.
package experiments

import (
	"time"

	"github.com/parcel-go/parcel/internal/core"
	"github.com/parcel-go/parcel/internal/dirbrowser"
	"github.com/parcel-go/parcel/internal/metrics"
	"github.com/parcel-go/parcel/internal/objcache"
	"github.com/parcel-go/parcel/internal/scenario"
	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/stats"
	"github.com/parcel-go/parcel/internal/webgen"
)

// Config holds the experiment-wide knobs.
type Config struct {
	// Seed controls page generation and network jitter.
	Seed int64
	// Pages is the evaluation set size (default 34, §7.2).
	Pages int
	// Runs is the number of measurement rounds per page/scheme; the paper
	// uses 20–40 LTE rounds to beat radio variability, we default to 5
	// (the simulator varies only by jitter seed).
	Runs int
	// Jitter adds per-packet LTE delay noise across runs.
	Jitter time.Duration
	// Scenario overrides the topology defaults (zero value = defaults).
	Scenario scenario.Params
	// Parallelism bounds the worker pool that fans out independent
	// (page, scheme, round) simulations: 0 (the default) means one worker
	// per CPU, 1 forces the serial path. Every task derives its jitter seed
	// from (Seed, round) alone, so results are bit-for-bit identical at any
	// parallelism level.
	Parallelism int
	// SharedCache gives every PARCEL proxy the sweep starts a cross-session
	// object cache (a fresh one per topology). Sweep sessions are
	// single-tenant with unique per-page URLs, so the cache never hits and
	// the figures must not move — the golden suite pins that invariance.
	SharedCache bool
}

// DefaultConfig returns the standard evaluation configuration.
func DefaultConfig() Config {
	return Config{Seed: 1, Pages: 34, Runs: 5, Jitter: 2 * time.Millisecond}
}

func (c Config) withDefaults() Config {
	if c.Pages == 0 {
		c.Pages = 34
	}
	if c.Runs == 0 {
		c.Runs = 5
	}
	if c.Scenario.LTERTT == 0 {
		c.Scenario = scenario.DefaultParams()
	}
	if c.Jitter > 0 {
		c.Scenario.LTEJitter = c.Jitter
	}
	return c
}

// PageSet generates the evaluation pages for a config.
func (c Config) PageSet() []webgen.Page {
	c = c.withDefaults()
	return webgen.Generate(webgen.Spec{Seed: c.Seed, NumPages: c.Pages})
}

// Scheme identifies a comparison arm.
type Scheme struct {
	// Name is the display label ("DIR", "PARCEL(IND)", ...).
	Name string
	// Sched is the PARCEL schedule; ignored when DIR is true.
	Sched sched.Config
	// DIR marks the traditional-browser baseline.
	DIR bool
}

// DIRScheme is the traditional mobile browser arm.
var DIRScheme = Scheme{Name: "DIR", DIR: true}

// ParcelScheme returns a PARCEL arm with the given schedule.
func ParcelScheme(cfg sched.Config) Scheme { return Scheme{Name: cfg.String(), Sched: cfg} }

// RunOnce loads one page with one scheme on a fresh topology and returns the
// run metrics. seed perturbs the topology (jitter draw), mirroring the
// paper's per-round variability.
func RunOnce(page webgen.Page, s Scheme, cfg Config, seed int64) metrics.PageRun {
	cfg = cfg.withDefaults()
	params := cfg.Scenario
	params.Seed = seed
	topo := scenario.Build(page, params)
	if s.DIR {
		return dirbrowser.Run(topo, dirbrowser.Options{FixedRandom: true})
	}
	pc := proxyConfigFor(cfg, s)
	return core.Run(topo, pc, core.DefaultClientConfig())
}

// proxyConfigFor builds one task's proxy configuration, attaching a fresh
// shared cache when the sweep asks for one. Per-topology caches keep tasks
// independent (and therefore order-free): cross-task sharing would make a
// task's timing depend on which tasks ran before it.
func proxyConfigFor(cfg Config, s Scheme) core.ProxyConfig {
	pc := core.DefaultProxyConfig()
	pc.Sched = s.Sched
	if cfg.SharedCache {
		pc.Cache = objcache.New(objcache.Config{Capacity: 64 << 20})
	}
	return pc
}

// roundSeed derives the jitter seed of measurement round r. It depends only
// on the experiment seed and the round index — never on execution order —
// which is what makes parallel sweeps reproduce serial output exactly.
func roundSeed(cfg Config, r int) int64 { return cfg.Seed + int64(r)*7919 }

// medianReduce collapses the per-round runs of one (page, scheme) cell into
// the paper's median-of-rounds reduction (§7.1): per-metric medians on top of
// round 0 as the representative run for trace-level detail.
func medianReduce(runs []metrics.PageRun) metrics.PageRun {
	olts := make([]float64, len(runs))
	tlts := make([]float64, len(runs))
	radios := make([]float64, len(runs))
	for i, run := range runs {
		olts[i] = run.OLT.Seconds()
		tlts[i] = run.TLT.Seconds()
		radios[i] = run.RadioJ
	}
	rep := runs[0]
	rep.OLT = time.Duration(stats.Median(olts) * float64(time.Second))
	rep.TLT = time.Duration(stats.Median(tlts) * float64(time.Second))
	rep.RadioJ = stats.Median(radios)
	return rep
}

// MedianRun loads a page cfg.Runs times with different jitter seeds and
// returns the per-metric medians (the paper's median-of-rounds reduction,
// §7.1), along with one representative run for trace-level detail. Rounds
// run batched on the cfg.Parallelism worker pool.
func MedianRun(page webgen.Page, s Scheme, cfg Config) metrics.PageRun {
	cfg = cfg.withDefaults()
	runs := runTasks(cfg, cfg.Runs, func(r int) batchTask {
		return batchTask{page: page, s: s, seed: roundSeed(cfg, r)}
	})
	return medianReduce(runs)
}

// PageResult couples a page with its per-scheme median runs.
type PageResult struct {
	Page webgen.Page
	Runs map[string]metrics.PageRun // keyed by scheme name
}

// Sweep runs every scheme over every page. It fans every (page, scheme,
// round) simulation out as one task of the batched engine — the flattening
// exposes the evaluation's full width (pages × schemes × rounds independent
// topologies) to the cfg.Parallelism worker pool, and each worker
// multiplexes batchSize of those simulations through shared arena pools —
// and then reduces rounds to medians in index order, so the result is
// identical to the serial page-by-page loop at any parallelism level.
func Sweep(cfg Config, schemes []Scheme) []PageResult {
	cfg = cfg.withDefaults()
	pages := cfg.PageSet()
	nSchemes, nRuns := len(schemes), cfg.Runs
	runs := runTasks(cfg, len(pages)*nSchemes*nRuns, func(i int) batchTask {
		return batchTask{
			page: pages[i/(nSchemes*nRuns)],
			s:    schemes[i/nRuns%nSchemes],
			seed: roundSeed(cfg, i%nRuns),
		}
	})
	out := make([]PageResult, 0, len(pages))
	for pi, page := range pages {
		pr := PageResult{Page: page, Runs: make(map[string]metrics.PageRun, nSchemes)}
		for si, s := range schemes {
			cell := (pi*nSchemes + si) * nRuns
			pr.Runs[s.Name] = medianReduce(runs[cell : cell+nRuns])
		}
		out = append(out, pr)
	}
	return out
}

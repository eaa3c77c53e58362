// Package experiments reproduces every table and figure of the paper's
// evaluation (§8): it builds topologies, runs the schemes over the page set,
// repeats runs the way the paper's rounds do (§7.2), and reduces the results
// to the series each figure plots. cmd/parcel-bench renders them.
package experiments

import (
	"time"

	"github.com/parcel-go/parcel/internal/browser"
	"github.com/parcel-go/parcel/internal/cloudbrowser"
	"github.com/parcel-go/parcel/internal/core"
	"github.com/parcel-go/parcel/internal/dirbrowser"
	"github.com/parcel-go/parcel/internal/metrics"
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
	// Scenario is what the run varies of the calibrated topology, LTE jitter
	// included (zero value: nothing); Seed is set per round.
	Scenario scenario.Params
	// Parallelism bounds the worker pool that fans out independent
	// (page, scheme, round) simulations: 0 (the default) means one worker
	// per CPU, 1 forces the serial path. Every task derives its jitter seed
	// from (Seed, round) alone, so results are bit-for-bit identical at any
	// parallelism level.
	Parallelism int
}

// DefaultConfig returns the standard evaluation configuration.
func DefaultConfig() Config {
	return Config{Seed: 1, Pages: 34, Runs: 5, Scenario: scenario.Params{LTEJitter: 2 * time.Millisecond}}
}

func (c Config) withDefaults() Config {
	if c.Pages == 0 {
		c.Pages = 34
	}
	if c.Runs == 0 {
		c.Runs = 5
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
	// Sched is the PARCEL schedule; other arms ignore it.
	Sched sched.Config
	kind  armKind
}

// armKind is which client a Scheme starts; the zero value is PARCEL, so a
// Scheme literal with only Name and Sched is a PARCEL arm. DIR and SPDY are
// one on-device browser (dirbrowser) over two transports.
type armKind uint8

const (
	parcelArm armKind = iota
	dirArm
	spdyArm // §9's SPDY-transport browser
	cbArm   // §8.2's cloud browser
)

// DIRScheme is the traditional mobile browser arm.
var DIRScheme = Scheme{Name: "DIR", kind: dirArm}

// SPDYScheme is the on-device browser over one multiplexed connection per
// domain (Table 1's SPDY-proxies column).
var SPDYScheme = Scheme{Name: "SPDY", kind: spdyArm}

// CBScheme is the cloud browser arm (§8.2).
var CBScheme = Scheme{Name: "CB", kind: cbArm}

// ParcelScheme returns a PARCEL arm with the given schedule.
func ParcelScheme(cfg sched.Config) Scheme { return Scheme{Name: cfg.String(), Sched: cfg} }

// arm is a Scheme started on a topology.
type arm struct {
	name    string
	collect func(*metrics.Collector) metrics.PageRun
	engine  *browser.Engine       // DIR, SPDY and PARCEL: the client's engine
	cb      *cloudbrowser.Session // CB only
	proxy   *core.Proxy           // PARCEL only
}

// start is the one place an arm begins loading topo's page on the mobile
// client. Every arm returns with its load under way and collect set, for
// the caller to drain topo.Sim.
func (s Scheme) start(topo *scenario.Topology) arm {
	a := arm{name: s.Name}
	switch s.kind {
	case parcelArm:
		pc := core.DefaultProxyConfig()
		pc.Sched = s.Sched
		a.proxy = core.StartProxy(topo, pc)
		client := core.NewClient(topo, core.DefaultClientConfig())
		client.Start()
		a.collect, a.engine = client.CollectWith, client.Engine
	case dirArm, spdyArm:
		var b *dirbrowser.Browser
		if s.kind == spdyArm {
			b = dirbrowser.NewSPDY(topo)
		} else {
			b = dirbrowser.New(topo, dirbrowser.Options{FixedRandom: true})
		}
		b.Start()
		a.collect, a.engine = b.CollectWith, b.Engine
	case cbArm:
		sess := cloudbrowser.New(topo)
		sess.Start()
		a.collect, a.cb = sess.CollectWith, sess
	}
	return a
}

// drain starts s on topo and runs topo's simulator to quiescence.
func (s Scheme) drain(topo *scenario.Topology) arm {
	a := s.start(topo)
	topo.Sim.Run()
	return a
}

// Run loads topo's page with s on the caller's topology and returns the
// run metrics: the public facade's entry (parcel.RunDIR, RunSPDY, RunCB
// and RunPARCEL).
func (s Scheme) Run(topo *scenario.Topology) metrics.PageRun {
	return s.drain(topo).run(new(metrics.Collector))
}

// load builds page's topology at seed, starts s on it and drains it. It is
// the one path every simulation takes: res is the batch engine's pooled
// resources, or nil for a private topology (RunOnce, the single-load figures,
// Table 1 and the Fig. 8 session).
func (s Scheme) load(page webgen.Page, cfg Config, seed int64, res *scenario.Resources) (*scenario.Topology, arm) {
	params := cfg.Scenario
	params.Seed = seed
	topo := scenario.BuildWith(page, params, res)
	return topo, s.drain(topo)
}

// run collects the arm's metrics through col's scratch, labelled with its
// scheme.
func (a arm) run(col *metrics.Collector) metrics.PageRun {
	r := a.collect(col)
	r.Scheme = a.name
	return r
}

// click fires one gallery click: on the client's engine, or relayed to the
// cloud under CB.
func (a arm) click() {
	if a.cb != nil {
		a.cb.Click("click", "gallery-next", nil)
		return
	}
	a.engine.FireEvent("click", "gallery-next")
}

// cpuActive is the client's CPU-active time so far.
func (a arm) cpuActive() time.Duration {
	if a.cb != nil {
		return a.cb.ClientCPUActive()
	}
	return a.engine.CPUActive()
}

// RunOnce loads one page with one scheme on a fresh topology and returns the
// run metrics. seed perturbs the topology (jitter draw), mirroring the
// paper's per-round variability.
func RunOnce(page webgen.Page, s Scheme, cfg Config, seed int64) metrics.PageRun {
	_, a := s.load(page, cfg.withDefaults(), seed, nil)
	return a.run(new(metrics.Collector))
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

// PageResult couples a page with its per-scheme median runs.
type PageResult struct {
	Page webgen.Page
	Runs map[string]metrics.PageRun // keyed by scheme name
}

// Sweep runs every scheme over every page. It fans every (page, scheme,
// round) simulation out as one task of the batched engine — the flattening
// exposes the evaluation's full width (pages × schemes × rounds independent
// topologies) to the cfg.Parallelism worker pool, and each worker runs
// batchSize of those simulations in turn on one set of pooled resources —
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

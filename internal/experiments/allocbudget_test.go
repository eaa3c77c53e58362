//go:build !simdebug

package experiments

import (
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/parcel-go/parcel/internal/core"
	"github.com/parcel-go/parcel/internal/metrics"
	"github.com/parcel-go/parcel/internal/scenario"
	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/webgen"
)

// pageLoadAllocBudget bounds one steady-state PARCEL page load on the batch
// engine's resources — shared arenas, the exec-outcome memo and collector
// scratch amortized across loads, exactly what one page costs a sweep worker.
// Before the pooling work the same load took 29,634 allocations. Measured on
// go1.24: 2256 plain and under -cover, 2306 (every run) under -race, and
// about 45,000 under -tags simdebug, whose owner checks parse runtime.Stack on every
// schedule and step — hence this file's build constraint.
const pageLoadAllocBudget = 2500

// TestPageLoadAllocBudget fails when the sim fetch path grows a per-object or
// per-packet allocation: the load sits ~245 under its budget, 195 under -race.
func TestPageLoadAllocBudget(t *testing.T) {
	page := webgen.Generate(webgen.Spec{Seed: 77, NumPages: 4})[2]
	res := scenario.NewResources()
	var col metrics.Collector
	load := func() {
		topo := scenario.BuildWith(page, scenario.DefaultParams(), res)
		core.StartProxy(topo, core.DefaultProxyConfig())
		client := core.NewClient(topo, core.DefaultClientConfig())
		client.Start()
		topo.Sim.Run()
		client.CollectWith(&col)
		topo.Release()
	}
	// AllocsPerRun's own warm-up run fills the pools and caches, the way a
	// worker's first batch member does for the rest.
	if avg := testing.AllocsPerRun(20, load); avg > pageLoadAllocBudget {
		t.Errorf("PARCEL page load allocates %.0f/op, budget %d", avg, pageLoadAllocBudget)
	} else {
		t.Logf("PARCEL page load: %.0f allocs/op (budget %d)", avg, pageLoadAllocBudget)
	}
}

// sweepAllocBudgetKB bounds the bytes one steady-state sweep of 8 pages ×
// {DIR, PARCEL(IND)} × 1 round allocates at parallelism 1. A sweep that
// rebuilds its worker's arenas and trace recorders instead of reusing the
// batch engine's pooled state allocates 4,518 kB; reusing them, 2,506 kB
// (2,535 kB under -race), on go1.24.
const sweepAllocBudgetKB = 2600

// TestSweepAllocBudget fails when Sweep stops reusing batch state across
// calls: after one warm-up sweep, five more must average under the budget.
// GC is off while it measures, so no collection can free what the engine
// keeps and the reading repeats exactly.
func TestSweepAllocBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pages = 8
	cfg.Runs = 1
	cfg.Parallelism = 1
	schemes := []Scheme{DIRScheme, ParcelScheme(sched.ConfigIND)}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	Sweep(cfg, schemes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const sweeps = 5
	for i := 0; i < sweeps; i++ {
		Sweep(cfg, schemes)
	}
	runtime.ReadMemStats(&after)
	perSweep := (after.TotalAlloc - before.TotalAlloc) / sweeps / 1000
	if perSweep > sweepAllocBudgetKB {
		t.Errorf("steady sweep allocates %d kB, budget %d kB", perSweep, sweepAllocBudgetKB)
	} else {
		t.Logf("steady sweep: %d kB (budget %d kB)", perSweep, sweepAllocBudgetKB)
	}
}

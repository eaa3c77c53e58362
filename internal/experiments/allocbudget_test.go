//go:build !simdebug

package experiments

import (
	"testing"

	"github.com/parcel-go/parcel/internal/core"
	"github.com/parcel-go/parcel/internal/metrics"
	"github.com/parcel-go/parcel/internal/scenario"
	"github.com/parcel-go/parcel/internal/webgen"
)

// pageLoadAllocBudget bounds one steady-state PARCEL page load on the batch
// engine's resources — shared arenas, the exec-outcome memo and collector
// scratch amortized across loads, exactly what one page costs a sweep worker.
// Before the pooling work the same load took 29,634 allocations. Measured on
// go1.24: 2446 plain and under -cover, 2496 (every run) under -race, and
// about 45,000 under -tags simdebug, whose owner checks parse runtime.Stack on every
// schedule and step — hence this file's build constraint.
const pageLoadAllocBudget = 2500

// TestPageLoadAllocBudget fails when the sim fetch path grows a per-object or
// per-packet allocation: the load sits ~55 under its budget, 4 under -race.
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

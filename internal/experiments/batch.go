// Batched simulation engine: one event loop per worker multiplexes many
// concurrent page simulations. Every simulation keeps its own virtual clock
// (its private eventsim.Simulator), but the batch shares one arena pool set
// — event blocks, packets, minijs call frames, trace recorders — and the
// process-wide script exec-outcome cache, so the allocation and
// interpretation cost of a page amortizes across the whole sweep instead of
// being paid per (page, scheme, round) task.
//
// Determinism: a simulation's event order is internal to its own simulator
// and seeded by (Seed, task index) alone, so the round-robin interleaving
// below cannot reorder anything observable. Batch boundaries are a pure
// function of (n, batchSize), never of scheduling, and results land in
// index-chosen slots — batched output is bit-for-bit the serial output.
package experiments

import (
	"github.com/parcel-go/parcel/internal/core"
	"github.com/parcel-go/parcel/internal/dirbrowser"
	"github.com/parcel-go/parcel/internal/metrics"
	"github.com/parcel-go/parcel/internal/runner"
	"github.com/parcel-go/parcel/internal/scenario"
	"github.com/parcel-go/parcel/internal/webgen"
)

// batchTask is one (page, scheme, seed) simulation of a flattened sweep.
type batchTask struct {
	page webgen.Page
	s    Scheme
	seed int64
}

// batchState is the per-worker state threaded through runner.MapBatches:
// the arena pools every simulation this worker drives shares, plus the
// metrics collector scratch. It never crosses goroutines.
type batchState struct {
	res *scenario.Resources
	col metrics.Collector
}

// batchSession is one admitted simulation: its topology plus the
// scheme-specific collector that assembles its metrics once drained.
type batchSession struct {
	topo    *scenario.Topology
	collect func(*metrics.Collector) metrics.PageRun
	scheme  string
}

// stepQuantum is how many events a simulation executes before the worker
// rotates to the next member of its batch. The value only shapes cache
// locality (larger = fewer rotations, smaller = fairer interleaving); it
// cannot affect results, because each simulation's event order is private.
const stepQuantum = 64

// runBatch admits the tasks of one batch, interleaves their event loops
// until every simulation drains, and collects metrics in task order into
// out. st carries the worker's pools between batches (nil on the worker's
// first batch).
func runBatch(st *batchState, tasks []batchTask, cfg Config, out []metrics.PageRun) *batchState {
	if st == nil {
		st = &batchState{res: scenario.NewResources()}
	}
	sessions := make([]batchSession, len(tasks))
	for i, tk := range tasks {
		params := cfg.Scenario
		params.Seed = tk.seed
		topo := scenario.BuildWith(tk.page, params, st.res)
		if tk.s.DIR {
			b := dirbrowser.New(topo, dirbrowser.Options{FixedRandom: true})
			b.Engine.Load(topo.Page.MainURL)
			sessions[i] = batchSession{topo: topo, collect: b.CollectWith, scheme: "DIR"}
		} else {
			pc := proxyConfigFor(cfg, tk.s)
			core.StartProxy(topo, pc)
			client := core.NewClient(topo, core.DefaultClientConfig())
			client.Start()
			sessions[i] = batchSession{topo: topo, collect: client.CollectWith, scheme: pc.Sched.String()}
		}
	}

	// Multiplex: round-robin a quantum of events per live simulation until
	// all of them drain. Virtual clocks advance independently.
	remaining := len(sessions)
	done := make([]bool, len(sessions))
	for remaining > 0 {
		for i := range sessions {
			if done[i] {
				continue
			}
			sim := sessions[i].topo.Sim
			for q := 0; q < stepQuantum; q++ {
				if !sim.Step() {
					done[i] = true
					remaining--
					break
				}
			}
		}
	}

	for i := range sessions {
		run := sessions[i].collect(&st.col)
		run.Scheme = sessions[i].scheme
		out[i] = run
		sessions[i].topo.Release()
	}
	return st
}

// batchSize is how many page simulations one worker multiplexes through its
// shared event loop and arena pools. Like stepQuantum it shapes only where
// time and memory go: TestBatchMatchesSerial pins the engine bit-for-bit to a
// plain loop of RunOnce, the one-private-topology-per-task reference.
const batchSize = 16

// runTasks fans n simulation tasks out across the cfg.Parallelism pool with
// the batch engine.
func runTasks(cfg Config, n int, task func(i int) batchTask) []metrics.PageRun {
	return runner.MapBatches(cfg.Parallelism, n, batchSize,
		func(st *batchState, lo, hi int, out []metrics.PageRun) *batchState {
			tasks := make([]batchTask, hi-lo)
			for i := range tasks {
				tasks[i] = task(lo + i)
			}
			return runBatch(st, tasks, cfg, out)
		})
}

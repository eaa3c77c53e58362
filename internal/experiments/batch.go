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
	"sync"

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

// batchState is what one running batch owns: the arena pools every
// simulation of the batch shares, plus the metrics collector scratch. One
// goroutine holds it at a time.
type batchState struct {
	res *scenario.Resources
	col metrics.Collector
}

// batchStates keeps batch state across batches and across Sweep calls:
// runBatch takes one and returns it once every simulation of its batch has
// been collected and released, so the arenas and trace recorders earlier
// batches grew are reused, not rebuilt per worker per sweep. The free list
// holds at most as many states as batches ever ran at once. (A sync.Pool
// would drop states at every GC, and at random under -race, which makes a
// sweep's allocations unrepeatable.)
var batchStates struct {
	sync.Mutex
	free []*batchState
}

// takeBatchState pops the most recently returned state, or makes one.
func takeBatchState() *batchState {
	batchStates.Lock()
	defer batchStates.Unlock()
	n := len(batchStates.free)
	if n == 0 {
		return &batchState{res: scenario.NewResources()}
	}
	st := batchStates.free[n-1]
	batchStates.free = batchStates.free[:n-1]
	return st
}

// putBatchState returns st for the next batch.
func putBatchState(st *batchState) {
	batchStates.Lock()
	batchStates.free = append(batchStates.free, st)
	batchStates.Unlock()
}

// batchSession is one admitted simulation: its topology and the arm started
// on it.
type batchSession struct {
	topo *scenario.Topology
	arm  arm
}

// stepQuantum is how many events a simulation executes before the worker
// rotates to the next member of its batch. The value only shapes cache
// locality (larger = fewer rotations, smaller = fairer interleaving); it
// cannot affect results, because each simulation's event order is private.
const stepQuantum = 64

// runBatch admits the tasks of one batch, interleaves their event loops
// until every simulation drains, and collects metrics in task order into
// out, on a batchState taken from batchStates.
func runBatch(tasks []batchTask, cfg Config, out []metrics.PageRun) {
	st := takeBatchState()
	sessions := make([]batchSession, len(tasks))
	for i, tk := range tasks {
		params := cfg.Scenario
		params.Seed = tk.seed
		topo := scenario.BuildWith(tk.page, params, st.res)
		sessions[i] = batchSession{topo: topo, arm: tk.s.start(topo, cfg)}
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
		out[i] = sessions[i].arm.run(&st.col)
		sessions[i].topo.Release()
	}
	// Not deferred: a batch that panicked may leave pooled objects in use.
	putBatchState(st)
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
		func(lo, hi int, out []metrics.PageRun) {
			tasks := make([]batchTask, hi-lo)
			for i := range tasks {
				tasks[i] = task(lo + i)
			}
			runBatch(tasks, cfg, out)
		})
}

// Batched simulation engine: each worker takes a contiguous window of
// (page, scheme, seed) tasks and runs them one at a time to completion —
// build, start, drain, collect, release — on one set of pooled resources:
// event blocks, packets, minijs call frames, trace recorders, plus the
// process-wide script exec-outcome cache. Every simulation keeps its own
// virtual clock (its private eventsim.Simulator); what one task frees, the
// next task's build reuses while it is still in cache, so the allocation and
// interpretation cost of a page amortizes across the whole sweep instead of
// being paid per task.
//
// Determinism: a simulation's event order is internal to its own simulator
// and seeded by (Seed, task index) alone. Batch boundaries are a pure
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

// batchState is what one running batch owns: the pooled resources its
// simulations take in turn, plus the metrics collector scratch. One
// goroutine holds it at a time.
type batchState struct {
	res *scenario.Resources
	col metrics.Collector
}

// batchStates keeps batch state across batches and across Sweep calls:
// runBatch takes one and returns it once its last simulation has been
// collected and released, so the arenas and trace recorders earlier batches
// grew are reused, not rebuilt per worker per sweep. The free list holds at
// most as many states as batches ever ran at once. (A sync.Pool would drop
// states at every GC, and at random under -race, which makes a sweep's
// allocations unrepeatable.)
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

// runBatch runs the tasks of one batch in order, each through Scheme.load
// on a batchState taken from batchStates, and collects their metrics into
// out. A task's topology is released before the next one is built.
func runBatch(tasks []batchTask, cfg Config, out []metrics.PageRun) {
	st := takeBatchState()
	for i, tk := range tasks {
		topo, a := tk.s.load(tk.page, cfg, tk.seed, st.res)
		out[i] = a.run(&st.col)
		topo.Release()
	}
	// Not deferred: a batch that panicked may leave pooled objects in use.
	putBatchState(st)
}

// batchSize is how many consecutive tasks one worker runs on one batchState.
// Tasks are page-major, so a window of 16 keeps a page's rounds and schemes
// on one worker, and that worker alone fills the page's entries in the
// process-wide artifact and exec-outcome caches (with windows of 1, two
// workers fill them for the same page, and a cold sweep runs about 30 %
// slower). It shapes only where time and memory go: TestBatchMatchesSerial
// pins the engine bit-for-bit to a plain loop of RunOnce, the
// one-private-topology-per-task reference.
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

// Package runner is the parallel experiment-execution engine: a bounded
// worker pool that fans independent simulation tasks out across cores and
// collects their results in deterministic (index) order.
//
// The paper's evaluation shape — rounds × pages × schemes (§7–8) — is
// embarrassingly parallel by construction: every task builds a private
// scenario.Topology with its own eventsim.Simulator, and every task's seed is
// derived from the experiment seed and the task's coordinates, never from
// execution order. The runner therefore guarantees that parallel output is
// bit-for-bit identical to serial output: results land in a slice slot chosen
// by task index, and the caller assembles them exactly as the serial loop
// would have.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallelism normalizes a parallelism knob: n <= 0 means "one worker per
// available CPU" (runtime.GOMAXPROCS(0)), anything else is used as given.
func Parallelism(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map runs fn(i) for every i in [0, n) on a bounded worker pool and returns
// the results indexed by i. parallelism <= 0 defaults to the number of CPUs;
// parallelism == 1 (or n <= 1) runs inline on the calling goroutine with no
// synchronization, so the serial path costs exactly what the pre-runner
// serial loops did.
//
// fn must be safe to call from multiple goroutines at once for distinct i —
// for simulation work that means each call builds its own topology and
// touches no shared mutable state. Panics in fn propagate to the caller.
func Map[T any](parallelism, n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	workers := Parallelism(parallelism)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}

	// Workers pull the next task index from an atomic counter (work
	// stealing): long tasks don't leave a statically-assigned worker idle,
	// and the result slot keeps output order independent of scheduling.
	var next atomic.Int64
	var wg sync.WaitGroup
	// A panic in fn must reach the caller, not kill the process from a
	// worker goroutine (test assertions rely on it).
	var panicOnce sync.Once
	var panicked any
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return out
}

// MapBatches runs fn over [0, n) in contiguous batches of batchSize tasks
// and returns the results indexed by task. Each call fills out[0:hi-lo] with
// the results for tasks [lo, hi). Batches are Each's tasks, claimed whole
// off its counter, so batch boundaries are a pure function of (n, batchSize)
// — results never depend on scheduling. State a batch engine reuses between
// batches is its own to keep (experiments pools it across calls).
//
// parallelism <= 0 defaults to the number of CPUs; one worker (or a single
// batch) runs inline on the calling goroutine in index order. batchSize <= 0
// defaults to 1. Panics in fn propagate to the caller.
func MapBatches[T any](parallelism, n, batchSize int, fn func(lo, hi int, out []T)) []T {
	if n <= 0 {
		return nil
	}
	if batchSize <= 0 {
		batchSize = 1
	}
	out := make([]T, n)
	Each(parallelism, (n+batchSize-1)/batchSize, func(b int) {
		lo := b * batchSize
		hi := min(lo+batchSize, n)
		fn(lo, hi, out[lo:hi])
	})
	return out
}

// Each is Map for side-effect-only tasks.
func Each(parallelism, n int, fn func(i int)) {
	Map(parallelism, n, func(i int) struct{} {
		fn(i)
		return struct{}{}
	})
}

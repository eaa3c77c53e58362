package runner

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, parallelism := range []int{0, 1, 2, 8, 64} {
		got := Map(parallelism, 100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallelism=%d: out[%d] = %d, want %d", parallelism, i, v, i*i)
			}
		}
	}
}

func TestMapRunsEveryTaskExactlyOnce(t *testing.T) {
	var calls [257]atomic.Int32
	Map(16, len(calls), func(i int) struct{} {
		calls[i].Add(1)
		return struct{}{}
	})
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("task %d ran %d times", i, n)
		}
	}
}

func TestMapBoundsWorkers(t *testing.T) {
	const parallelism = 3
	var inFlight, peak atomic.Int32
	Map(parallelism, 64, func(i int) struct{} {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		runtime.Gosched()
		inFlight.Add(-1)
		return struct{}{}
	})
	if p := peak.Load(); p > parallelism {
		t.Fatalf("observed %d concurrent tasks, want <= %d", p, parallelism)
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	if got := Map(4, 0, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("n=0 returned %v", got)
	}
	if got := Map(4, 1, func(i int) int { return 41 + i }); len(got) != 1 || got[0] != 41 {
		t.Fatalf("n=1 returned %v", got)
	}
}

func TestMapPropagatesPanic(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic in fn did not propagate")
		}
	}()
	Map(4, 16, func(i int) int {
		if i == 7 {
			panic("boom")
		}
		return i
	})
}

func TestParallelismDefaults(t *testing.T) {
	if got := Parallelism(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Parallelism(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Parallelism(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Parallelism(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Parallelism(5); got != 5 {
		t.Fatalf("Parallelism(5) = %d", got)
	}
}

func TestEach(t *testing.T) {
	var sum atomic.Int64
	Each(4, 10, func(i int) { sum.Add(int64(i)) })
	if sum.Load() != 45 {
		t.Fatalf("sum = %d, want 45", sum.Load())
	}
}

func TestMapBatchesCoversEveryTaskOnce(t *testing.T) {
	for _, parallelism := range []int{1, 3} {
		for _, batchSize := range []int{0, 1, 7, 100} {
			var calls atomic.Int32
			got := MapBatches(parallelism, 50, batchSize, func(lo, hi int, out []int) {
				calls.Add(1)
				if len(out) != hi-lo || (batchSize > 1 && hi-lo > batchSize) {
					t.Errorf("batch [%d, %d) got %d slots", lo, hi, len(out))
				}
				for i := range out {
					out[i] = lo + i
				}
			})
			for i, v := range got {
				if v != i {
					t.Fatalf("parallelism %d batchSize %d: out[%d] = %d", parallelism, batchSize, i, v)
				}
			}
			if want := (50 + max(batchSize, 1) - 1) / max(batchSize, 1); int(calls.Load()) != want {
				t.Fatalf("parallelism %d batchSize %d: %d batches, want %d", parallelism, batchSize, calls.Load(), want)
			}
		}
	}
}

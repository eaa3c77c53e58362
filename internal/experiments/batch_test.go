package experiments

import (
	"reflect"
	"testing"

	"github.com/parcel-go/parcel/internal/metrics"
	"github.com/parcel-go/parcel/internal/sched"
)

// TestBatchMatchesSerial pins the batch engine to the reference it replaced:
// Sweep at every parallelism must reproduce bit for bit a plain serial loop
// of RunOnce + medianReduce — one private topology per task, no shared
// arenas, no exec-outcome cache. This is the determinism contract of
// batch.go — pooled resources reused from one task to the next and the
// exec-outcome cache may change where time and memory go, never what the
// figures say. All four arm kinds run, each started mid-load by start and
// drained by load.
func TestBatchMatchesSerial(t *testing.T) {
	schemes := []Scheme{DIRScheme, ParcelScheme(sched.ConfigIND), ParcelScheme(sched.Config512K),
		SPDYScheme, CBScheme}
	cfg := goldenConfig()
	var want []PageResult
	for _, page := range cfg.PageSet() {
		pr := PageResult{Page: page, Runs: map[string]metrics.PageRun{}}
		for _, s := range schemes {
			runs := make([]metrics.PageRun, cfg.Runs)
			for r := range runs {
				runs[r] = RunOnce(page, s, cfg, roundSeed(cfg, r))
			}
			pr.Runs[s.Name] = medianReduce(runs)
		}
		want = append(want, pr)
	}
	for _, par := range []int{1, 4} {
		c := cfg
		c.Parallelism = par
		if got := Sweep(c, schemes); !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d: sweep differs from the serial RunOnce loop", par)
		}
	}
}

// TestBatchRaceStress repeats parallel batched sweeps so the race detector
// sees the cross-worker surfaces — the process-wide exec-outcome cache, the
// webgen page cache, and the artifact caches — under contention, and so
// repeated reuse of each worker's arenas (events, packets, frames,
// recorders) across batches stays deterministic. Run with -race in CI.
func TestBatchRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	cfg := goldenConfig()
	cfg.Pages = 12 // 48 simulations: three batches, so three workers contend
	cfg.Parallelism = 4
	schemes := []Scheme{DIRScheme, ParcelScheme(sched.ConfigIND)}
	want := Sweep(cfg, schemes)
	for i := 0; i < 3; i++ {
		if got := Sweep(cfg, schemes); !reflect.DeepEqual(got, want) {
			t.Fatalf("sweep %d diverged across arena reuse", i)
		}
	}
}

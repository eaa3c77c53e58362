package experiments

import (
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/scenario"
	"github.com/parcel-go/parcel/internal/sched"
)

// chaosSeed returns the experiment seed for fault-injection tests. The CI
// chaos job sweeps it via CHAOS_SEED; locally it defaults to 1.
func chaosSeed() int64 {
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return 1
}

// chaosConfig is a small-but-real sweep configuration: enough pages and
// rounds to exercise loss paths without making the suite slow.
func chaosConfig() Config {
	return Config{Seed: chaosSeed(), Pages: 3, Runs: 2, Scenario: scenario.Params{LTEJitter: 2 * time.Millisecond}}
}

var chaosSchemes = []Scheme{DIRScheme, ParcelScheme(sched.ConfigONLD)}

// TestLossSweepDeterministic is the in-tree half of the chaos acceptance
// gate: the same seed and fault profile must reproduce every counter —
// retries, drops, fallbacks — and every KPI bit-for-bit across runs and
// across parallelism levels.
func TestLossSweepDeterministic(t *testing.T) {
	rates := []float64{0.02}
	profiles := DefaultFaultProfiles()
	serial := chaosConfig()
	serial.Parallelism = 1
	parallel := chaosConfig()
	parallel.Parallelism = 4

	a := LossSweep(serial, rates, profiles, chaosSchemes)
	b := LossSweep(serial, rates, profiles, chaosSchemes)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged across runs:\n%+v\nvs\n%+v", a, b)
	}
	c := LossSweep(parallel, rates, profiles, chaosSchemes)
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("parallel sweep diverged from serial:\n%+v\nvs\n%+v", a, c)
	}
}

// TestLossSweepFinalObjectSetsStable pins the stronger per-run property: at
// a fixed seed and profile, each faulty page load finishes with the identical
// object count and fault counters, run after run.
func TestLossSweepFinalObjectSetsStable(t *testing.T) {
	cfg := chaosConfig()
	cfg.Scenario = DefaultConfig().Scenario
	page := cfg.PageSet()[0]
	profile := DefaultFaultProfiles()[1] // burst
	cfg2 := cfg.withDefaults()
	cfg2.Scenario.AccessFaults = profile.At(0.05)

	r1 := RunOnce(page, chaosSchemes[1], cfg2, chaosSeed())
	r2 := RunOnce(page, chaosSchemes[1], cfg2, chaosSeed())
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("faulty run not reproducible:\n%+v\nvs\n%+v", r1, r2)
	}
	if r1.ObjectsLoaded != page.ObjectCount {
		t.Fatalf("faulty run lost objects: loaded %d of %d", r1.ObjectsLoaded, page.ObjectCount)
	}
	if r1.Retransmits == 0 || r1.DroppedPackets == 0 {
		t.Fatalf("burst profile at 5%% injected nothing: %+v", r1)
	}
}

// TestLossSlowsAndCostsEnergy checks the sweep measures what the paper's
// robustness story predicts: loss increases load time and radio energy.
func TestLossSlowsAndCostsEnergy(t *testing.T) {
	cfg := chaosConfig()
	page := cfg.PageSet()[0]
	clean := cfg.withDefaults()
	lossy := cfg.withDefaults()
	lossy.Scenario.AccessFaults = (FaultProfile{Name: "uniform"}).At(0.08)

	rClean := RunOnce(page, chaosSchemes[1], clean, chaosSeed())
	rLossy := RunOnce(page, chaosSchemes[1], lossy, chaosSeed())
	if rLossy.TLT <= rClean.TLT {
		t.Fatalf("8%% loss did not slow the load: clean %v lossy %v", rClean.TLT, rLossy.TLT)
	}
	if rLossy.RadioJ <= rClean.RadioJ {
		t.Fatalf("8%% loss did not cost energy: clean %.3fJ lossy %.3fJ", rClean.RadioJ, rLossy.RadioJ)
	}
	if rLossy.RetransmitBytes == 0 {
		t.Fatal("lossy run recorded no retransmitted bytes")
	}
}

// TestZeroFaultSweepMatchesPlainSweep pins the off-switch: a sweep at rate 0
// with the uniform profile must equal the plain Sweep byte for byte.
func TestZeroFaultSweepMatchesPlainSweep(t *testing.T) {
	cfg := chaosConfig()
	plain := Sweep(cfg, chaosSchemes)
	faultless := LossSweep(cfg, []float64{0}, []FaultProfile{{Name: "uniform"}}, chaosSchemes)
	for i, pr := range plain {
		for _, s := range chaosSchemes {
			run := pr.Runs[s.Name]
			if run.DroppedPackets != 0 || run.Retransmits != 0 {
				t.Fatalf("plain sweep recorded fault stats: %+v", run)
			}
			_ = i
		}
	}
	// Cross-check the aggregate KPIs of the zero-rate point against the
	// plain sweep's own aggregation.
	for _, pt := range faultless {
		var olt float64
		for _, pr := range plain {
			olt += pr.Runs[pt.Scheme].OLT.Seconds()
		}
		want := time.Duration(olt / float64(len(plain)) * float64(time.Second))
		if pt.MeanOLT != want {
			t.Fatalf("zero-rate point OLT %v != plain sweep %v", pt.MeanOLT, want)
		}
		if pt.Dropped != 0 || pt.Retransmits != 0 || pt.RetransmitBytes != 0 {
			t.Fatalf("zero-rate point carries fault stats: %+v", pt)
		}
	}
}

// TestAccessFaultsReachTheTopology sets faults on a config straight from
// DefaultConfig, whose Scenario is otherwise zero: the faults must reach the
// run's network, not be replaced by the calibrated defaults.
func TestAccessFaultsReachTheTopology(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pages = 1
	cfg.Scenario.AccessFaults = (FaultProfile{Name: "uniform"}).At(0.08)
	page := cfg.PageSet()[0]
	run := RunOnce(page, DIRScheme, cfg, cfg.Seed)
	if run.DroppedPackets == 0 || run.Retransmits == 0 {
		t.Fatalf("8%% access loss dropped nothing: dropped=%d retransmits=%d", run.DroppedPackets, run.Retransmits)
	}
}

package main

import (
	"bytes"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/experiments"
	"github.com/parcel-go/parcel/internal/webgen"
)

const specFile = "../BENCHMARK.json"

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := percentile(xs, 95); ok {
		t.Fatal("p95 reported on 199 samples: fewer than 10 lie beyond it")
	}
	xs = append(xs, 199)
	v, ok := percentile(xs, 95)
	if !ok || math.Abs(v-189.05) > 1e-9 {
		t.Fatalf("p95 of 0..199 = %v, %v; want 189.05 (stats.Percentile's interpolation), true", v, ok)
	}
	if _, ok := percentile(xs[:34], 50); !ok {
		t.Fatal("p50 must be reported on 34 samples")
	}
	if _, ok := percentile(nil, 50); ok {
		t.Fatal("p50 reported on an empty sample")
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{epoch: time.Now()}
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	tr.add("load", -1, 7, at(0), at(100))
	// Two overlapping children cover [10,50]; a third covers [60,70] and one
	// spills past the parent's end: only [90,100] of it counts.
	tr.add("dial", 0, 7, at(10), at(40))
	tr.add("wait", 0, 7, at(30), at(50))
	tr.add("verify", 0, 7, at(60), at(70))
	tr.add("late", 0, 7, at(90), at(120))
	tr.add("inner", 1, 7, at(15), at(20))

	tot := tr.totals()
	if got := tot["load"].Self; got != 40*time.Millisecond {
		t.Errorf("load self time = %v, want 40ms (100 - 40 - 10 - 10)", got)
	}
	if got := tot["dial"]; got.Total != 30*time.Millisecond || got.Self != 25*time.Millisecond {
		t.Errorf("dial total/self = %v/%v, want 30ms/25ms", got.Total, got.Self)
	}
	if got := tot["wait"]; got.Self != got.Total {
		t.Errorf("childless span: self %v != total %v", got.Self, got.Total)
	}

	// A nil tracer is the untraced pass: nothing recorded, nothing panics.
	var off *tracer
	off.end(off.begin("x", -1, 0))
	off.add("x", -1, 0, at(0), at(1))
	if len(off.totals()) != 0 {
		t.Error("nil tracer recorded spans")
	}
}

func TestCountingConn(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	var rs, ws sockStats
	reader := &countingConn{Conn: a, st: &rs}
	writer := &countingConn{Conn: b, st: &ws, timed: true}

	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		writer.Write(make([]byte, 300))
		writer.Write(make([]byte, 200))
	}()
	before := time.Now()
	if _, err := io.ReadFull(reader, make([]byte, 500)); err != nil {
		t.Fatal(err)
	}
	<-wrote
	if got := rs.readBytes.Load(); got != 500 {
		t.Errorf("read bytes = %d, want 500", got)
	}
	if rs.reads.Load() < 2 {
		t.Errorf("reads = %d, want at least 2 (one per write on a pipe)", rs.reads.Load())
	}
	if ws.writes.Load() != 2 || ws.writeBytes.Load() != 500 {
		t.Errorf("writes = %d / %d bytes, want 2 / 500", ws.writes.Load(), ws.writeBytes.Load())
	}
	if ws.writeWaitNs.Load() <= 0 {
		t.Error("a timed writer must record time spent in Write")
	}
	first, ok := rs.firstRead()
	if !ok || first.Before(before) || first.After(time.Now()) {
		t.Errorf("first read at %v (ok=%v), want within the test", first, ok)
	}
	if _, ok := ws.firstRead(); ok {
		t.Error("the writer never read; it has no first-read time")
	}
}

func TestSeedDecidesPageBytes(t *testing.T) {
	body := func(seed int64) []byte {
		var buf bytes.Buffer
		for _, p := range webgen.Generate(webgen.Spec{Seed: seed, NumPages: 3}) {
			for _, o := range p.Objects {
				buf.WriteString(o.URL)
				buf.Write(o.Body)
			}
		}
		return buf.Bytes()
	}
	if !bytes.Equal(body(5), body(5)) {
		t.Error("same seed, different page bytes")
	}
	if bytes.Equal(body(5), body(6)) {
		t.Error("different seeds, same page bytes")
	}
}

func TestVerifyParts(t *testing.T) {
	ref := map[string][]byte{"http://a/x": []byte("abc"), "http://a/y": []byte("de")}
	held := map[string][]byte{"http://a/x": []byte("abc"), "http://a/y": []byte("de"), "http://a/extra": nil}
	if err := verifyParts(held, ref); err != nil {
		t.Errorf("superset of the reference set with equal bodies: %v", err)
	}
	held["http://a/y"] = []byte("dE")
	if err := verifyParts(held, ref); err == nil {
		t.Error("a differing body must fail the load")
	}
	delete(held, "http://a/y")
	if err := verifyParts(held, ref); err == nil {
		t.Error("a missing object must fail the load")
	}
}

// The benchmark measures the existing system, not a variant of it: sim_fleet
// at seed 1 is the committed BENCH_loadgen.json sim arm, and sim_sweep's
// reductions are experiments.Headline's for the same config.
func TestMeasuresTheCommittedSystem(t *testing.T) {
	t.Parallel()
	fleet := &simFleet{sz: sizing{tenants: 200, fleetPg: 4}}
	if err := fleet.setup(1); err != nil {
		t.Fatal(err)
	}
	if got := ms(fleet.ref.Report.P50); math.Abs(got-3857.766994) > 1e-6 {
		t.Errorf("sim_fleet p50 at seed 1 = %.6f ms, BENCH_loadgen.json has 3857.766994", got)
	}

	sweep := &simSweep{sz: smokeSizing()}
	if err := sweep.setup(1); err != nil {
		t.Fatal(err)
	}
	win := sweep.measure(0, nil)
	if win.failed != 0 {
		t.Fatalf("sweep verification: %s", win.failure)
	}
	head := experiments.Headline(sweep.cfg)
	if got, want := win.scoped["olt_reduction_pct"], 100*head.OLTReduction; got != want {
		t.Errorf("olt_reduction_pct = %v, Headline gives %v", got, want)
	}
	if got, want := win.scoped["radio_reduction_pct"], 100*head.EnergyReduction; got != want {
		t.Errorf("radio_reduction_pct = %v, Headline gives %v", got, want)
	}
}

// Every workload, at smoke sizing, emits every declared metric exactly once
// under its declared unit, passes its own verification, and never leaves an
// end-to-end metric at zero.
func TestSmokeEmitsEveryDeclaredMetric(t *testing.T) {
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(spec.Workloads); got != 5 {
		t.Fatalf("%d workloads declared, want 5", got)
	}
	for _, wl := range spec.Workloads {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			p := plan{seed: 3, sz: smokeSizing(), setups: 1, untraced: 50 * time.Millisecond, traced: 50 * time.Millisecond}
			res, err := runWorkload(spec, wl.Name, p)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, res.Failure)
			}
			check := func(kind string, declared []metricSpec, got map[string]metricValue) {
				if len(got) != len(declared) {
					t.Errorf("%s: %d metrics emitted, %d declared", kind, len(got), len(declared))
				}
				for _, m := range declared {
					v, ok := got[m.Name]
					if !ok {
						t.Errorf("%s metric %s not emitted", kind, m.Name)
					} else if v.Unit != m.Unit {
						t.Errorf("%s metric %s has unit %q, declared %q", kind, m.Name, v.Unit, m.Unit)
					}
				}
			}
			check("end-to-end", spec.EndToEnd, res.EndToEnd)
			check("per-layer", spec.PerLayer, res.PerLayer)
			for name, v := range res.EndToEnd {
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", name, v.Value)
				}
			}
			if len(res.spans) == 0 {
				t.Error("traced pass recorded no spans")
			}
		})
	}
}

func TestEmitRejectsUndeclaredAndMissing(t *testing.T) {
	declared := []metricSpec{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "s"}}
	if _, err := emit(declared, map[string]float64{"a": 1, "typo": 2}, false); err == nil {
		t.Error("an undeclared metric name must be an error")
	}
	if _, err := emit(declared, map[string]float64{"a": 1}, true); err == nil {
		t.Error("a missing end-to-end metric must be an error")
	}
	got, err := emit(declared, map[string]float64{"a": 1}, false)
	if err != nil || got["b"].Value != 0 || got["b"].Unit != "s" {
		t.Errorf("a per-layer metric the workload does not exercise reads 0: got %v, %v", got, err)
	}
}

func TestPickPagesPinsTheSetSize(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		pool := webgen.Generate(webgen.Spec{Seed: seed, NumPages: 51})
		picked := pickPages(pool, 34)
		if len(picked) != 34 {
			t.Fatalf("seed %d: %d pages picked, want 34", seed, len(picked))
		}
		var total int64
		seen := map[string]bool{}
		for _, p := range picked {
			total += p.TotalBytes
			if seen[p.Name] {
				t.Errorf("seed %d: page %s picked twice", seed, p.Name)
			}
			seen[p.Name] = true
		}
		if off := math.Abs(float64(total)/(34*meanPageBytes) - 1); off > 0.01 {
			t.Errorf("seed %d: picked set totals %d bytes, %.2f%% off target", seed, total, 100*off)
		}
	}
	if pool := webgen.Generate(webgen.Spec{Seed: 1, NumPages: 3}); len(pickPages(pool, 4)) != 3 {
		t.Error("a pool smaller than n is returned whole")
	}
}

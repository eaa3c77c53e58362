// Benchmarks: one per table/figure of the paper's evaluation, plus ablation
// benches for the design choices DESIGN.md calls out. Each benchmark runs a
// reduced sweep (the full 34-page × multi-round evaluation lives in
// cmd/parcel-bench) and reports the figure's headline quantity as a custom
// metric, so `go test -bench=.` regenerates the result shape end to end.
package parcel_test

import (
	"testing"
	"time"

	"github.com/parcel-go/parcel"
	"github.com/parcel-go/parcel/internal/core"
	"github.com/parcel-go/parcel/internal/dirbrowser"
	"github.com/parcel-go/parcel/internal/experiments"
	"github.com/parcel-go/parcel/internal/scenario"
	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/stats"
	"github.com/parcel-go/parcel/internal/webgen"
)

// benchCfg is the reduced evaluation configuration for benchmarks.
func benchCfg(pages int) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Pages = pages
	cfg.Runs = 1
	cfg.Jitter = 0
	return cfg
}

func BenchmarkFig3_CellularVsWired(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3(benchCfg(6))
		gap = stats.Median(r.CellularOLT) / stats.Median(r.WiredOLT)
	}
	b.ReportMetric(gap, "cellular/wired-OLT-ratio")
}

func BenchmarkFig5_DownloadPatterns(b *testing.B) {
	var bundles float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5(benchCfg(6), 2)
		for _, s := range r.Series {
			if s.Scheme == "PARCEL(ONLD)" {
				bundles = float64(s.Bundles)
			}
		}
	}
	b.ReportMetric(bundles, "ONLD-bundles")
}

func BenchmarkFig6a_Timeline(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig6a(benchCfg(6))
		ratio = r.DIRClientOLT.Seconds() / r.ParcelClientOLT.Seconds()
	}
	b.ReportMetric(ratio, "DIR/PARCEL-OLT-ratio")
}

func BenchmarkFig6b_LatencyCDF(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig6bAndEnergy(benchCfg(8))
		reduction = 1 - stats.Median(r.ParcelOLT)/stats.Median(r.DIROLT)
	}
	b.ReportMetric(100*reduction, "OLT-reduction-%")
}

func BenchmarkFig6c_Correlation(b *testing.B) {
	var corr float64
	for i := 0; i < b.N; i++ {
		corr = experiments.Fig6c(benchCfg(8)).Correlation
	}
	b.ReportMetric(corr, "pearson-r")
}

func BenchmarkFig7a_RRCStates(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig7a(benchCfg(6))
		ratio = float64(r.DIRTransitions) / float64(r.ParcelTransitions)
	}
	b.ReportMetric(ratio, "DIR/PARCEL-transitions")
}

func BenchmarkFig7b_EnergyCDF(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig6bAndEnergy(benchCfg(8))
		reduction = 1 - stats.Median(r.ParcelEnergy)/stats.Median(r.DIREnergy)
	}
	b.ReportMetric(100*reduction, "energy-reduction-%")
}

func BenchmarkFig8_InteractiveSession(b *testing.B) {
	var cbGrowth float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8(benchCfg(6))
		cb, _ := r.SchemeNamed("CB")
		cbGrowth = cb.Points[len(cb.Points)-1].CumRadioJ - cb.Points[0].CumRadioJ
	}
	b.ReportMetric(cbGrowth, "CB-click-radio-J")
}

func BenchmarkFig9_BundleVariants(b *testing.B) {
	var onldIncrease float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9(benchCfg(6))
		onldIncrease = stats.Median(r.OLTIncrease["PARCEL(ONLD)"])
	}
	b.ReportMetric(onldIncrease, "ONLD-OLT-increase-s")
}

func BenchmarkFig10_RealServersOLT(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1011(benchCfg(8))
		reduction = 1 - stats.Median(r.ParcelOLT)/stats.Median(r.DIROLT)
	}
	b.ReportMetric(100*reduction, "OLT-reduction-%")
}

func BenchmarkFig11_RealServersEnergy(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1011(benchCfg(8))
		reduction = 1 - stats.Median(r.ParcelEnergy)/stats.Median(r.DIREnergy)
	}
	b.ReportMetric(100*reduction, "energy-reduction-%")
}

func BenchmarkTable1_SchemeProperties(b *testing.B) {
	var conns float64
	for i := 0; i < b.N; i++ {
		m := experiments.MeasureTable1(benchCfg(6))
		conns = float64(m.DIRClientConns)
	}
	b.ReportMetric(conns, "DIR-conns")
	b.ReportMetric(1, "PARCEL-conns")
}

func BenchmarkModel_OptimalBundle(b *testing.B) {
	var bStar float64
	for i := 0; i < b.N; i++ {
		bStar = experiments.Model().OptimalBundle
	}
	b.ReportMetric(bStar/1e3, "bstar-KB")
}

func BenchmarkDelaySensitivity(b *testing.B) {
	var penaltyGrowth float64
	for i := 0; i < b.N; i++ {
		r := experiments.DelaySensitivity(benchCfg(4))
		k20, k60 := (20 * time.Millisecond).String(), (60 * time.Millisecond).String()
		pen20 := r.MedianOLT[k20]["PARCEL(ONLD)"] - r.MedianOLT[k20]["PARCEL(IND)"]
		pen60 := r.MedianOLT[k60]["PARCEL(ONLD)"] - r.MedianOLT[k60]["PARCEL(IND)"]
		penaltyGrowth = pen60 - pen20
	}
	b.ReportMetric(penaltyGrowth, "ONLD-penalty-growth-s")
}

// BenchmarkSweepSerialVsParallel runs the same DIR+PARCEL(IND) sweep with a
// one-worker pool and a per-CPU pool and reports the wall-clock speedup. On a
// single-CPU machine both arms take the serial path and the ratio sits at
// ~1.0x; on a 4-core runner the parallel arm should cut the sweep at least in
// half (bench/'s runner.parallel_efficiency probe records the same ratio).
func BenchmarkSweepSerialVsParallel(b *testing.B) {
	cfg := benchCfg(8)
	cfg.Runs = 2
	cfg.Jitter = 2 * time.Millisecond
	schemes := []experiments.Scheme{
		experiments.DIRScheme,
		experiments.ParcelScheme(sched.ConfigIND),
	}
	b.ReportAllocs()
	var serial, parallel time.Duration
	for i := 0; i < b.N; i++ {
		cfg.Parallelism = 1
		t0 := time.Now()
		experiments.Sweep(cfg, schemes)
		serial += time.Since(t0)

		cfg.Parallelism = 0 // one worker per CPU
		t1 := time.Now()
		experiments.Sweep(cfg, schemes)
		parallel += time.Since(t1)
	}
	if parallel > 0 {
		b.ReportMetric(serial.Seconds()/parallel.Seconds(), "serial/parallel-speedup")
	}
}

// --- single page-load throughput benches -------------------------------------

func benchPage(b *testing.B) webgen.Page {
	b.Helper()
	return webgen.Generate(webgen.Spec{Seed: 77, NumPages: 4})[2]
}

func BenchmarkPageLoadPARCEL(b *testing.B) {
	page := benchPage(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		topo := scenario.Build(page, scenario.DefaultParams())
		core.Run(topo, core.DefaultProxyConfig(), core.DefaultClientConfig())
	}
}

func BenchmarkPageLoadDIR(b *testing.B) {
	page := benchPage(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		topo := scenario.Build(page, scenario.DefaultParams())
		dirbrowser.Run(topo, dirbrowser.Options{FixedRandom: true})
	}
}

// --- ablations ---------------------------------------------------------------

// BenchmarkAblationConnsPerDomain toggles DIR's parallelism limits: the
// per-domain cap and the browser-wide pool cap both shape DIR's latency.
func BenchmarkAblationConnsPerDomain(b *testing.B) {
	page := benchPage(b)
	var capped, uncapped float64
	for i := 0; i < b.N; i++ {
		t1 := scenario.Build(page, scenario.DefaultParams())
		capped = dirbrowser.Run(t1, dirbrowser.Options{FixedRandom: true}).OLT.Seconds()
		t2 := scenario.Build(page, scenario.DefaultParams())
		uncapped = dirbrowser.Run(t2, dirbrowser.Options{
			FixedRandom: true, ConnsPerDomain: 32, MaxTotalConns: -1,
		}).OLT.Seconds()
	}
	b.ReportMetric(capped, "capped-OLT-s")
	b.ReportMetric(uncapped, "uncapped-OLT-s")
}

// BenchmarkAblationQuietPeriod varies the §4.5 completion heuristic window:
// shorter windows notify earlier but risk straggler pushes.
func BenchmarkAblationQuietPeriod(b *testing.B) {
	page := benchPage(b)
	quiets := []time.Duration{time.Second, 3 * time.Second, 6 * time.Second}
	results := make([]float64, len(quiets))
	for i := 0; i < b.N; i++ {
		for qi, q := range quiets {
			topo := scenario.Build(page, scenario.DefaultParams())
			cfg := core.DefaultProxyConfig()
			cfg.QuietPeriod = q
			proxy := core.StartProxy(topo, cfg)
			core.NewClient(topo, core.DefaultClientConfig()).Load()
			results[qi] = proxy.Sessions[0].CompleteAt.Seconds()
		}
	}
	for qi, q := range quiets {
		b.ReportMetric(results[qi], "completeAt-s-quiet-"+q.String())
	}
}

// BenchmarkAblationRadioParams compares energy under the default LTE
// calibration vs a long-tail operator configuration.
func BenchmarkAblationRadioParams(b *testing.B) {
	page := benchPage(b)
	var defJ, longTailJ float64
	for i := 0; i < b.N; i++ {
		topo := scenario.Build(page, scenario.DefaultParams())
		run := core.Run(topo, core.DefaultProxyConfig(), core.DefaultClientConfig())
		defJ = run.RadioJ
		long := parcel.DefaultLTERadio()
		long.CRTail = 500 * time.Millisecond
		long.LongDRXTail = 11 * time.Second
		rep := parcel.SimulateRadio(topo.ClientTrace.Activities(), long, 0)
		longTailJ = rep.TotalEnergy
	}
	b.ReportMetric(defJ, "default-J")
	b.ReportMetric(longTailJ, "long-tail-J")
}

// BenchmarkAblationLocalVsRemoteJS is the Figure 8 design choice at bench
// granularity: radio cost of one interaction, local (PARCEL) vs remote (CB).
func BenchmarkAblationLocalVsRemoteJS(b *testing.B) {
	var perClick float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8(benchCfg(6))
		cb, _ := r.SchemeNamed("CB")
		p, _ := r.SchemeNamed("PARCEL")
		cbClick := (cb.Points[len(cb.Points)-1].CumRadioJ - cb.Points[0].CumRadioJ) / float64(r.Clicks)
		pClick := (p.Points[len(p.Points)-1].CumRadioJ - p.Points[0].CumRadioJ) / float64(r.Clicks)
		perClick = cbClick - pClick
	}
	b.ReportMetric(perClick, "remote-extra-J-per-click")
}

// BenchmarkAblationSchedules compares the three schedules' OLT on one page.
func BenchmarkAblationSchedules(b *testing.B) {
	page := benchPage(b)
	schedules := []sched.Config{sched.ConfigIND, sched.Config512K, sched.ConfigONLD}
	olts := make([]float64, len(schedules))
	for i := 0; i < b.N; i++ {
		for si, sc := range schedules {
			topo := scenario.Build(page, scenario.DefaultParams())
			cfg := core.DefaultProxyConfig()
			cfg.Sched = sc
			olts[si] = core.Run(topo, cfg, core.DefaultClientConfig()).OLT.Seconds()
		}
	}
	for si, sc := range schedules {
		b.ReportMetric(olts[si], "OLT-s-"+sc.String())
	}
}

package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/metrics"
	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/stats"
)

// quickCfg keeps test sweeps small; parcel-bench runs the full evaluation.
func quickCfg(pages int) Config {
	cfg := DefaultConfig()
	cfg.Pages = pages
	cfg.Runs = 1
	cfg.Scenario.LTEJitter = 0
	return cfg
}

// calibrated sweeps quickCfg(pages) with schemes.
func calibrated(pages int, schemes []Scheme) []PageResult {
	return Sweep(quickCfg(pages), schemes)
}

func TestFig3WiredBeatsCellular(t *testing.T) {
	r := Fig3(quickCfg(8), calibrated(8, []Scheme{DIRScheme}))
	if len(r.CellularOLT) != 8 || len(r.WiredOLT) != 8 {
		t.Fatalf("series lengths wrong: %d/%d", len(r.CellularOLT), len(r.WiredOLT))
	}
	cell, wired := stats.Median(r.CellularOLT), stats.Median(r.WiredOLT)
	// Figure 3: cellular OLT median > 6 s, wired ≈ 1.1 s — we require the
	// strong ordering and a multiple-of gap.
	if wired >= cell {
		t.Fatalf("wired median %.2fs >= cellular %.2fs", wired, cell)
	}
	if cell < 2*wired {
		t.Fatalf("cellular %.2fs not substantially slower than wired %.2fs", cell, wired)
	}
}

func TestFig5PatternsDiffer(t *testing.T) {
	r := Fig5(quickCfg(8), 2)
	if len(r.Series) != 4 {
		t.Fatalf("series = %d, want 4", len(r.Series))
	}
	byScheme := map[string]Fig5Series{}
	for _, s := range r.Series {
		if len(s.Points) == 0 {
			t.Fatalf("scheme %s has empty timeline", s.Scheme)
		}
		byScheme[s.Scheme] = s
	}
	// ONLD makes strictly fewer bundles than IND.
	if byScheme["PARCEL(ONLD)"].Bundles >= byScheme["PARCEL(IND)"].Bundles {
		t.Fatalf("ONLD bundles %d >= IND bundles %d",
			byScheme["PARCEL(ONLD)"].Bundles, byScheme["PARCEL(IND)"].Bundles)
	}
	// All schemes deliver the same total page bytes (within framing noise).
	last := func(s Fig5Series) int64 { return s.Points[len(s.Points)-1].Bytes }
	ind, onld := last(byScheme["PARCEL(IND)"]), last(byScheme["PARCEL(ONLD)"])
	if diff := float64(ind-onld) / float64(ind); diff > 0.1 || diff < -0.1 {
		t.Fatalf("byte totals differ: IND %d vs ONLD %d", ind, onld)
	}
}

func TestFig6aTimelineOrdering(t *testing.T) {
	r := Fig6a(quickCfg(8))
	if len(r.ProxySeries) == 0 || len(r.ParcelSeries) == 0 || len(r.DIRSeries) == 0 {
		t.Fatal("missing series")
	}
	// Figure 6a: download completes first at the proxy, then the PARCEL
	// client, then the DIR client.
	if !(r.ProxyOnload < r.ParcelClientOLT) {
		t.Fatalf("proxy onload %v not before PARCEL client OLT %v", r.ProxyOnload, r.ParcelClientOLT)
	}
	if !(r.ParcelClientOLT < r.DIRClientOLT) {
		t.Fatalf("PARCEL OLT %v not before DIR OLT %v", r.ParcelClientOLT, r.DIRClientOLT)
	}
}

func TestFig6bParcelDominates(t *testing.T) {
	sweep := calibrated(10, HeadlineSchemes)
	r, e := Fig6b(sweep), Fig7bc(sweep)
	if stats.Median(r.ParcelOLT) >= stats.Median(r.DIROLT) {
		t.Fatalf("PARCEL OLT median %.2f >= DIR %.2f", stats.Median(r.ParcelOLT), stats.Median(r.DIROLT))
	}
	if stats.Median(r.ParcelTLT) >= stats.Median(r.DIRTLT) {
		t.Fatalf("PARCEL TLT median %.2f >= DIR %.2f", stats.Median(r.ParcelTLT), stats.Median(r.DIRTLT))
	}
	// Energy ordering too (Figure 7b).
	if stats.Median(e.ParcelEnergy) >= stats.Median(e.DIREnergy) {
		t.Fatalf("PARCEL energy median %.2f >= DIR %.2f", stats.Median(e.ParcelEnergy), stats.Median(e.DIREnergy))
	}
}

// TestReductionNamesMissingColumn: a reduction handed a sweep without a
// column it reads panics and names that column, rather than reducing zeros.
func TestReductionNamesMissingColumn(t *testing.T) {
	sweep := []PageResult{{Runs: map[string]metrics.PageRun{"DIR": {OLT: time.Second}}}}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "PARCEL(IND)") {
			t.Fatalf("panic %q, want one naming PARCEL(IND)", msg)
		}
	}()
	Fig6b(sweep)
}

func TestFig6cPositiveCorrelation(t *testing.T) {
	r := Fig6c(calibrated(12, HeadlineSchemes))
	if len(r.Points) != 12 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// Paper: correlation coefficient 0.83 — richer pages benefit more. We
	// require a clearly positive correlation.
	if r.Correlation < 0.5 {
		t.Fatalf("correlation = %.2f, want strongly positive", r.Correlation)
	}
}

func TestFig7aTransitionsAndEnergy(t *testing.T) {
	r := Fig7a(quickCfg(8))
	// Figure 7a: DIR transitions (22) far exceed PARCEL's (7), and DIR
	// consumes roughly twice the energy (11.16 J vs 5.63 J).
	if r.ParcelTransitions >= r.DIRTransitions {
		t.Fatalf("PARCEL transitions %d >= DIR %d", r.ParcelTransitions, r.DIRTransitions)
	}
	if r.ParcelEnergy >= r.DIREnergy {
		t.Fatalf("PARCEL energy %.2f >= DIR %.2f", r.ParcelEnergy, r.DIREnergy)
	}
	if len(r.DIRIntervals) == 0 || len(r.ParcelIntervals) == 0 {
		t.Fatal("missing RRC intervals")
	}
}

func TestFig7cSavingsDecomposition(t *testing.T) {
	r := Fig7bc(calibrated(10, HeadlineSchemes))
	positive := 0
	for i, s := range r.TotalSavings {
		if s > 0 {
			positive++
		}
		if r.CRSavingShare[i] < 0 || r.CRSavingShare[i] > 1 {
			t.Fatalf("CR share out of range: %v", r.CRSavingShare[i])
		}
	}
	// Paper: PARCEL saves at least 20% of radio energy for 95% of pages.
	if positive < len(r.TotalSavings)*8/10 {
		t.Fatalf("only %d/%d pages saved energy", positive, len(r.TotalSavings))
	}
	// CR savings account for at least half of total savings for most pages.
	crMajority := 0
	for _, share := range r.CRSavingShare {
		if share >= 0.5 {
			crMajority++
		}
	}
	if crMajority < len(r.CRSavingShare)/2 {
		t.Fatalf("CR-dominant savings on only %d/%d pages", crMajority, len(r.CRSavingShare))
	}
}

func TestFig8SessionShapes(t *testing.T) {
	r := Fig8(quickCfg(8))
	cb, ok := r.SchemeNamed("CB")
	if !ok {
		t.Fatal("no CB series")
	}
	parcel, _ := r.SchemeNamed("PARCEL")
	dir, _ := r.SchemeNamed("DIR")

	// CB cumulative radio energy grows significantly with every click.
	for i := 1; i < len(cb.Points); i++ {
		if cb.Points[i].CumRadioJ <= cb.Points[i-1].CumRadioJ+0.1 {
			t.Fatalf("CB radio energy flat at click %d: %+v", i, cb.Points)
		}
	}
	// PARCEL and DIR stay (nearly) flat after FD.
	for _, s := range []SessionResult{parcel, dir} {
		growth := s.Points[len(s.Points)-1].CumRadioJ - s.Points[0].CumRadioJ
		if growth > 1.0 {
			t.Fatalf("%s radio energy grew %.2f J across clicks, want ~flat", s.Scheme, growth)
		}
	}
	// Paper: CB's total energy is lower right after FD (no client JS)...
	if cb.Points[0].CumTotalJ >= parcel.Points[0].CumTotalJ {
		t.Fatalf("CB FD total %.2f >= PARCEL %.2f — thin client must start cheaper",
			cb.Points[0].CumTotalJ, parcel.Points[0].CumTotalJ)
	}
	// ...but by the end of the session it exceeds both PARCEL and DIR.
	lastCB := cb.Points[len(cb.Points)-1].CumTotalJ
	if lastCB <= parcel.Points[len(parcel.Points)-1].CumTotalJ {
		t.Fatalf("CB final total %.2f <= PARCEL %.2f", lastCB, parcel.Points[len(parcel.Points)-1].CumTotalJ)
	}
	if lastCB <= dir.Points[len(dir.Points)-1].CumTotalJ {
		t.Fatalf("CB final total %.2f <= DIR %.2f", lastCB, dir.Points[len(dir.Points)-1].CumTotalJ)
	}
	// And PARCEL's cumulative total stays below DIR's throughout.
	for i := range parcel.Points {
		if parcel.Points[i].CumTotalJ >= dir.Points[i].CumTotalJ {
			t.Fatalf("PARCEL total %.2f >= DIR %.2f at %s",
				parcel.Points[i].CumTotalJ, dir.Points[i].CumTotalJ, parcel.Points[i].Label)
		}
	}
}

func TestFig9VariantShapes(t *testing.T) {
	r := Fig9(calibrated(10, BundlingSchemes))
	if len(r.Variants) != 4 {
		t.Fatalf("variants = %v", r.Variants)
	}
	// Figure 9a: median OLT increase is nonnegative for every variant and
	// largest for ONLD.
	med := func(name string) float64 { return stats.Median(r.OLTIncrease[name]) }
	if med("PARCEL(ONLD)") < med("PARCEL(512K)")-0.05 {
		t.Fatalf("ONLD increase %.2f < 512K increase %.2f", med("PARCEL(ONLD)"), med("PARCEL(512K)"))
	}
	if med("PARCEL(512K)") < -0.1 {
		t.Fatalf("512K median OLT increase %.2f strongly negative", med("PARCEL(512K)"))
	}
	// Figure 9b: energy increases are small either way (no uniform winner).
	for _, v := range r.Variants {
		if e := stats.Median(r.EnergyIncrease[v]); e > 1.5 || e < -1.5 {
			t.Fatalf("%s median energy increase %.2f J out of plausible band", v, e)
		}
	}
}

func TestFig1011RealServers(t *testing.T) {
	r := Fig1011(Sweep(RealServers.Apply(quickCfg(10)), RealServerSchemes))
	if stats.Median(r.ParcelOLT) >= stats.Median(r.DIROLT) {
		t.Fatalf("real servers: PARCEL OLT %.2f >= DIR %.2f", stats.Median(r.ParcelOLT), stats.Median(r.DIROLT))
	}
	if stats.Median(r.ParcelEnergy) >= stats.Median(r.DIREnergy) {
		t.Fatalf("real servers: PARCEL energy %.2f >= DIR %.2f", stats.Median(r.ParcelEnergy), stats.Median(r.DIREnergy))
	}
}

func TestDelaySensitivity(t *testing.T) {
	cfg := quickCfg(6)
	r := DelaySensitivity(Sweep(cfg, DelaySchemes), Sweep(FarOrigin.Apply(cfg), DelaySchemes))
	k20, k60 := (20 * time.Millisecond).String(), (60 * time.Millisecond).String()
	// Higher proxy↔server delay raises everyone's OLT.
	if r.MedianOLT[k60]["PARCEL(IND)"] <= r.MedianOLT[k20]["PARCEL(IND)"] {
		t.Fatalf("60ms IND OLT %.2f <= 20ms %.2f", r.MedianOLT[k60]["PARCEL(IND)"], r.MedianOLT[k20]["PARCEL(IND)"])
	}
	// §8.3: with higher delay, ONLD's latency penalty over IND grows.
	pen20 := r.MedianOLT[k20]["PARCEL(ONLD)"] - r.MedianOLT[k20]["PARCEL(IND)"]
	pen60 := r.MedianOLT[k60]["PARCEL(ONLD)"] - r.MedianOLT[k60]["PARCEL(IND)"]
	if pen60 < pen20-0.2 {
		t.Fatalf("ONLD penalty shrank with delay: %.2f -> %.2f", pen20, pen60)
	}
}

func TestHeadlineReductions(t *testing.T) {
	s := Headline(quickCfg(12))
	// The abstract claims 49.6% OLT and 65% radio-energy reduction; the
	// reproduced shape must show reductions of at least 35% and 40%.
	if s.OLTReduction < 0.35 {
		t.Fatalf("OLT reduction %.1f%%, want >= 35%% (paper: 49.6%%)", 100*s.OLTReduction)
	}
	if s.EnergyReduction < 0.40 {
		t.Fatalf("energy reduction %.1f%%, want >= 40%% (paper: 65%%)", 100*s.EnergyReduction)
	}
	if s.OLTReduction > 0.75 || s.EnergyReduction > 0.85 {
		t.Fatalf("reductions implausibly large: %.2f / %.2f", s.OLTReduction, s.EnergyReduction)
	}
}

func TestTable1Measured(t *testing.T) {
	m := MeasureTable1(quickCfg(8))
	if m.ParcelClientConns != 1 {
		t.Fatalf("PARCEL conns = %d, want 1 (Table 1: single)", m.ParcelClientConns)
	}
	if m.ParcelClientRequests != 1 {
		t.Fatalf("PARCEL requests = %d, want 1 (Table 1: single)", m.ParcelClientRequests)
	}
	if m.DIRClientConns <= 1 {
		t.Fatalf("DIR conns = %d, want many", m.DIRClientConns)
	}
	if m.DIRClientRequests <= m.ParcelClientRequests {
		t.Fatalf("DIR requests = %d, want per-object", m.DIRClientRequests)
	}
	if m.ParcelProxyIdentified == 0 {
		t.Fatal("proxy identified no objects")
	}
	if m.InteractionPackets != 0 {
		t.Fatalf("interaction packets = %d, want 0 (local JS)", m.InteractionPackets)
	}
}

func TestModelWorkedExample(t *testing.T) {
	m := Model()
	if m.Alpha < 0.70 || m.Alpha > 0.78 {
		t.Fatalf("alpha = %.3f, want ≈ 0.74", m.Alpha)
	}
	if m.OptimalBundle < m.PaperOptimalLow || m.OptimalBundle > m.PaperOptimalHigh {
		t.Fatalf("b* = %.0f, want within [%.0f, %.0f]", m.OptimalBundle, m.PaperOptimalLow, m.PaperOptimalHigh)
	}
	if len(m.Curve) == 0 {
		t.Fatal("empty model curve")
	}
	// OLT decreases in n along the curve.
	for i := 1; i < len(m.Curve); i++ {
		if m.Curve[i].OLT > m.Curve[i-1].OLT {
			t.Fatalf("OLT(n) not decreasing at n=%v", m.Curve[i].N)
		}
	}
}

func TestSweepDeterministic(t *testing.T) {
	cfg := quickCfg(3)
	schemes := []Scheme{DIRScheme, ParcelScheme(sched.ConfigIND)}
	hashed := httpsim.ValidatorHashes()
	a := Sweep(cfg, schemes)
	b := Sweep(cfg, schemes)
	for i := range a {
		ra, rb := a[i].Runs["PARCEL(IND)"], b[i].Runs["PARCEL(IND)"]
		if ra.OLT != rb.OLT || ra.RadioJ != rb.RadioJ {
			t.Fatalf("sweep not deterministic on page %d", i)
		}
	}
	// Without a shared cache nothing consumes a validator, so a sweep —
	// generation, topology set-up and every load — hashes no body.
	if n := httpsim.ValidatorHashes() - hashed; n != 0 {
		t.Errorf("cacheless sweep hashed %d bodies, want 0", n)
	}
}

// TestSweepParallelMatchesSerial is the determinism contract of the runner
// rewire: a parallel sweep must reproduce the serial sweep bit for bit —
// every metric, trace point, and radio interval — because each task's seed
// derives from (cfg.Seed, round) alone, never from execution order. Jitter
// is on and rounds > 1 so the per-round seeds actually differ.
func TestSweepParallelMatchesSerial(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pages = 4
	cfg.Runs = 3
	cfg.Scenario.LTEJitter = 2 * time.Millisecond
	schemes := []Scheme{DIRScheme, ParcelScheme(sched.ConfigIND), ParcelScheme(sched.Config512K)}

	cfg.Parallelism = 1
	serial := Sweep(cfg, schemes)
	cfg.Parallelism = 8
	parallel := Sweep(cfg, schemes)

	if !reflect.DeepEqual(serial, parallel) {
		for i := range serial {
			for _, s := range schemes {
				if !reflect.DeepEqual(serial[i].Runs[s.Name], parallel[i].Runs[s.Name]) {
					t.Errorf("page %d scheme %s: serial %+v != parallel %+v",
						i, s.Name, serial[i].Runs[s.Name], parallel[i].Runs[s.Name])
				}
			}
		}
		t.Fatal("parallel sweep diverged from serial sweep")
	}
}

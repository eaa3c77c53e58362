package experiments

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"
)

// The golden-metrics suite pins the numeric output of every figure harness at
// a fixed seed. The simulators are deterministic by construction, so any
// change in these numbers means an optimisation altered simulated behaviour —
// exactly the regression a hot-path rewrite must not introduce. Durations are
// stored as integer nanoseconds and everything else as float64; the
// comparison is exact (bit-identical), not approximate.
//
// Regenerate intentionally with:
//
//	go test ./internal/experiments/ -run TestGoldenFigures -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_figs.json from the current code")

// goldenConfig is the fixed evaluation slice the suite runs: small enough to
// keep the suite fast, wide enough that every harness exercises multi-page
// sweeps, jitter rounds, and all schemes.
func goldenConfig() Config {
	cfg := DefaultConfig()
	cfg.Pages = 6
	cfg.Runs = 2
	cfg.Scenario.LTEJitter = 2 * time.Millisecond
	cfg.Parallelism = 1
	return cfg
}

type goldenFig5 struct {
	Scheme  string `json:"scheme"`
	Points  int    `json:"points"`
	DoneNS  int64  `json:"done_ns"`
	Bytes   int64  `json:"bytes"`
	Bundles int    `json:"bundles"`
}

type goldenFig8 struct {
	Scheme string    `json:"scheme"`
	Radio  []float64 `json:"radio_j"`
	Total  []float64 `json:"total_j"`
}

type goldenFigs struct {
	Fig3CellularOLT []float64 `json:"fig3_cellular_olt_s"`
	Fig3WiredOLT    []float64 `json:"fig3_wired_olt_s"`

	Fig5 []goldenFig5 `json:"fig5"`

	Fig6aProxyOnloadNS int64 `json:"fig6a_proxy_onload_ns"`
	Fig6aParcelOLTNS   int64 `json:"fig6a_parcel_olt_ns"`
	Fig6aDIROLTNS      int64 `json:"fig6a_dir_olt_ns"`

	Fig6bParcelOLT    []float64 `json:"fig6b_parcel_olt_s"`
	Fig6bParcelTLT    []float64 `json:"fig6b_parcel_tlt_s"`
	Fig6bDIROLT       []float64 `json:"fig6b_dir_olt_s"`
	Fig6bDIRTLT       []float64 `json:"fig6b_dir_tlt_s"`
	Fig7bParcelEnergy []float64 `json:"fig7b_parcel_energy_j"`
	Fig7bDIREnergy    []float64 `json:"fig7b_dir_energy_j"`

	Fig6cCorrelation float64   `json:"fig6c_correlation"`
	Fig6cRequests    []int     `json:"fig6c_requests"`
	Fig6cReductions  []float64 `json:"fig6c_reductions_s"`

	Fig7aDIRTransitions    int     `json:"fig7a_dir_transitions"`
	Fig7aParcelTransitions int     `json:"fig7a_parcel_transitions"`
	Fig7aDIREnergy         float64 `json:"fig7a_dir_energy_j"`
	Fig7aParcelEnergy      float64 `json:"fig7a_parcel_energy_j"`

	Fig8 []goldenFig8 `json:"fig8"`

	Fig9OLTIncrease    map[string][]float64 `json:"fig9_olt_increase_s"`
	Fig9EnergyIncrease map[string][]float64 `json:"fig9_energy_increase_j"`

	Fig1011ParcelOLT    []float64 `json:"fig1011_parcel_olt_s"`
	Fig1011DIROLT       []float64 `json:"fig1011_dir_olt_s"`
	Fig1011ParcelEnergy []float64 `json:"fig1011_parcel_energy_j"`
	Fig1011DIREnergy    []float64 `json:"fig1011_dir_energy_j"`

	DelayMedianOLT    map[string]map[string]float64 `json:"delay_median_olt_s"`
	DelayMedianEnergy map[string]map[string]float64 `json:"delay_median_energy_j"`

	Table1ParcelConns    int `json:"table1_parcel_conns"`
	Table1ParcelRequests int `json:"table1_parcel_requests"`
	Table1DIRConns       int `json:"table1_dir_conns"`
	Table1DIRRequests    int `json:"table1_dir_requests"`
	Table1Identified     int `json:"table1_identified"`
	Table1Interaction    int `json:"table1_interaction_packets"`

	SPDYOLT    []float64 `json:"spdy_olt_s"`
	SPDYEnergy []float64 `json:"spdy_energy_j"`

	ModelAlpha         float64 `json:"model_alpha"`
	ModelOptimalBundle float64 `json:"model_optimal_bundle"`
	ModelMinEnergyN    float64 `json:"model_min_energy_n"`

	HeadlineOLTReduction    float64 `json:"headline_olt_reduction"`
	HeadlineEnergyReduction float64 `json:"headline_energy_reduction"`
}

// measureGolden runs every figure harness on the given config, each sweep once.
func measureGolden(t *testing.T, cfg Config) goldenFigs {
	t.Helper()
	var g goldenFigs
	calibrated := Sweep(cfg, slices.Concat(HeadlineSchemes, BundlingSchemes[1:]))
	realServers := Sweep(RealServers.Apply(cfg), RealServerSchemes)
	farOrigin := Sweep(FarOrigin.Apply(cfg), DelaySchemes)

	r3 := Fig3(cfg, calibrated)
	g.Fig3CellularOLT = r3.CellularOLT
	g.Fig3WiredOLT = r3.WiredOLT

	r5 := Fig5(cfg, 2)
	for _, s := range r5.Series {
		gs := goldenFig5{Scheme: s.Scheme, Points: len(s.Points), Bundles: s.Bundles}
		if n := len(s.Points); n > 0 {
			gs.DoneNS = int64(s.Points[n-1].At)
			gs.Bytes = s.Points[n-1].Bytes
		}
		g.Fig5 = append(g.Fig5, gs)
	}

	r6a := Fig6a(cfg)
	g.Fig6aProxyOnloadNS = int64(r6a.ProxyOnload)
	g.Fig6aParcelOLTNS = int64(r6a.ParcelClientOLT)
	g.Fig6aDIROLTNS = int64(r6a.DIRClientOLT)

	r6b := Fig6b(calibrated)
	g.Fig6bParcelOLT = r6b.ParcelOLT
	g.Fig6bParcelTLT = r6b.ParcelTLT
	g.Fig6bDIROLT = r6b.DIROLT
	g.Fig6bDIRTLT = r6b.DIRTLT
	r7b := Fig7bc(calibrated)
	g.Fig7bParcelEnergy = r7b.ParcelEnergy
	g.Fig7bDIREnergy = r7b.DIREnergy

	r6c := Fig6c(calibrated)
	g.Fig6cCorrelation = r6c.Correlation
	for _, p := range r6c.Points {
		g.Fig6cRequests = append(g.Fig6cRequests, p.HTTPRequests)
		g.Fig6cReductions = append(g.Fig6cReductions, p.ReductionSec)
	}

	r7a := Fig7a(cfg)
	g.Fig7aDIRTransitions = r7a.DIRTransitions
	g.Fig7aParcelTransitions = r7a.ParcelTransitions
	g.Fig7aDIREnergy = r7a.DIREnergy
	g.Fig7aParcelEnergy = r7a.ParcelEnergy

	r8 := Fig8(cfg)
	for _, s := range r8.Results {
		gs := goldenFig8{Scheme: s.Scheme}
		for _, p := range s.Points {
			gs.Radio = append(gs.Radio, p.CumRadioJ)
			gs.Total = append(gs.Total, p.CumTotalJ)
		}
		g.Fig8 = append(g.Fig8, gs)
	}

	r9 := Fig9(calibrated)
	g.Fig9OLTIncrease = r9.OLTIncrease
	g.Fig9EnergyIncrease = r9.EnergyIncrease

	r1011 := Fig1011(realServers)
	g.Fig1011ParcelOLT = r1011.ParcelOLT
	g.Fig1011DIROLT = r1011.DIROLT
	g.Fig1011ParcelEnergy = r1011.ParcelEnergy
	g.Fig1011DIREnergy = r1011.DIREnergy

	rd := DelaySensitivity(calibrated, farOrigin)
	g.DelayMedianOLT = rd.MedianOLT
	g.DelayMedianEnergy = rd.MedianEnergy

	rt := MeasureTable1(cfg)
	g.Table1ParcelConns = rt.ParcelClientConns
	g.Table1ParcelRequests = rt.ParcelClientRequests
	g.Table1DIRConns = rt.DIRClientConns
	g.Table1DIRRequests = rt.DIRClientRequests
	g.Table1Identified = rt.ParcelProxyIdentified
	g.Table1Interaction = rt.InteractionPackets

	rs := SPDYComparison(cfg)
	g.SPDYOLT = rs.SPDYOLT
	g.SPDYEnergy = rs.SPDYEnergy

	rm := Model()
	g.ModelAlpha = rm.Alpha
	g.ModelOptimalBundle = rm.OptimalBundle
	g.ModelMinEnergyN = rm.MinEnergyN

	rh := Summarize(calibrated)
	g.HeadlineOLTReduction = rh.OLTReduction
	g.HeadlineEnergyReduction = rh.EnergyReduction

	return g
}

const goldenPath = "testdata/golden_figs.json"

func TestGoldenFigures(t *testing.T) {
	got := measureGolden(t, goldenConfig())

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatalf("marshal golden: %v", err)
		}
		data = append(data, '\n')
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatalf("mkdir testdata: %v", err)
		}
		if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to generate): %v", err)
	}
	var want goldenFigs
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}

	// Compare field by field so a drift names the figure it moved.
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	typ := gv.Type()
	for i := 0; i < typ.NumField(); i++ {
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Errorf("%s drifted from golden:\n got:  %#v\n want: %#v",
				typ.Field(i).Name, gv.Field(i).Interface(), wv.Field(i).Interface())
		}
	}
}

// TestGoldenParallelismInvariant asserts the golden metrics do not depend on
// the worker-pool width: the same figure harness at parallelism 2 must produce
// the same bits as the serial golden run (the batch engine's determinism contract).
func TestGoldenParallelismInvariant(t *testing.T) {
	cfg := goldenConfig()
	serial := Fig6b(Sweep(cfg, HeadlineSchemes))
	cfg.Parallelism = 2
	parallel := Fig6b(Sweep(cfg, HeadlineSchemes))
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("Fig6b differs between parallelism 1 and 2")
	}
}

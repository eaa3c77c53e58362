package parcel_test

import (
	"testing"
	"time"

	"github.com/parcel-go/parcel"
)

// The public-API tests exercise the facade the way a downstream user would.

func TestFacadeQuickstartFlow(t *testing.T) {
	pages := parcel.GeneratePages(1, 3)
	if len(pages) != 3 {
		t.Fatalf("pages = %d", len(pages))
	}
	page := pages[0]

	dir := parcel.RunDIR(parcel.BuildTopology(page, parcel.DefaultNetwork()))
	ind := parcel.RunPARCEL(parcel.BuildTopology(page, parcel.DefaultNetwork()), parcel.IND())
	if dir.OLT == 0 || ind.OLT == 0 {
		t.Fatal("schemes did not complete")
	}
	if ind.OLT >= dir.OLT {
		t.Fatalf("PARCEL OLT %v >= DIR %v", ind.OLT, dir.OLT)
	}
	if ind.HTTPRequests != 1 || dir.HTTPRequests <= 1 {
		t.Fatalf("request counts wrong: PARCEL %d, DIR %d", ind.HTTPRequests, dir.HTTPRequests)
	}
}

func TestFacadeSchedules(t *testing.T) {
	if parcel.IND().String() != "PARCEL(IND)" {
		t.Fatal("IND name")
	}
	if parcel.Threshold(512<<10).String() != "PARCEL(512K)" {
		t.Fatal("Threshold name")
	}
	if parcel.ONLD().String() != "PARCEL(ONLD)" {
		t.Fatal("ONLD name")
	}
}

func TestFacadeAllSchemesComplete(t *testing.T) {
	page := parcel.GeneratePages(9, 4)[1] // interactive page
	schemes := map[string]func() parcel.PageRun{
		"DIR":  func() parcel.PageRun { return parcel.RunDIR(parcel.BuildTopology(page, parcel.DefaultNetwork())) },
		"SPDY": func() parcel.PageRun { return parcel.RunSPDY(parcel.BuildTopology(page, parcel.DefaultNetwork())) },
		"CB":   func() parcel.PageRun { return parcel.RunCB(parcel.BuildTopology(page, parcel.DefaultNetwork())) },
		"PARCEL": func() parcel.PageRun {
			return parcel.RunPARCEL(parcel.BuildTopology(page, parcel.DefaultNetwork()), parcel.IND())
		},
	}
	for name, run := range schemes {
		r := run()
		if r.OLT <= 0 {
			t.Errorf("%s OLT = %v", name, r.OLT)
		}
		if r.RadioJ <= 0 {
			t.Errorf("%s radio = %v", name, r.RadioJ)
		}
	}
}

func TestFacadeRadioModel(t *testing.T) {
	p := parcel.DefaultLTERadio()
	if a := p.Alpha(); a < 0.7 || a > 0.78 {
		t.Fatalf("alpha = %v", a)
	}
	bStar := parcel.OptimalBundleSize(p, 6e6/8, 2<<20)
	if bStar < 800e3 || bStar > 1.05e6 {
		t.Fatalf("b* = %v", bStar)
	}
	rep := parcel.SimulateRadio(nil, p, 5*time.Second)
	if rep.TotalEnergy <= 0 {
		t.Fatal("idle trace has zero energy")
	}
}

func TestFacadeInteractiveSession(t *testing.T) {
	pages := parcel.GeneratePages(1, 4)
	page := parcel.InteractivePage(pages)
	topo := parcel.BuildTopology(page, parcel.DefaultNetwork())
	client := parcel.NewParcelSession(topo, parcel.DefaultProxyConfig(), parcel.DefaultClientConfig())
	client.Load()
	before := topo.ClientTrace.Len()
	if n := client.Engine.FireEvent("click", "gallery-next"); n == 0 {
		t.Fatal("no handler")
	}
	topo.Sim.Run()
	if topo.ClientTrace.Len() != before {
		t.Fatal("interaction hit the network")
	}
}

func TestFacadeHeadlineSmall(t *testing.T) {
	cfg := parcel.DefaultExperiments()
	cfg.Pages = 6
	cfg.Runs = 1
	cfg.Scenario.LTEJitter = 0
	s := parcel.Headline(cfg)
	if s.OLTReduction <= 0 || s.EnergyReduction <= 0 {
		t.Fatalf("reductions: %+v", s)
	}
}

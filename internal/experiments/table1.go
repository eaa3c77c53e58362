package experiments

import (
	"github.com/parcel-go/parcel/internal/metrics"
	"github.com/parcel-go/parcel/internal/runner"
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

	schemes := []Scheme{DIRScheme, ParcelScheme(sched.ConfigIND)}
	halves := runner.Map(cfg.Parallelism, 2, func(i int) Table1Measured {
		topo, a := schemes[i].load(page, cfg, cfg.Seed, nil)
		run := a.run(new(metrics.Collector))
		if a.proxy == nil {
			return Table1Measured{DIRClientConns: run.ConnsOpened, DIRClientRequests: run.HTTPRequests}
		}
		before := topo.ClientTrace.Len()
		a.click() // no-op on plain pages
		topo.Sim.Run()
		return Table1Measured{
			ParcelClientConns:     run.ConnsOpened,
			ParcelClientRequests:  run.HTTPRequests,
			ParcelProxyIdentified: a.proxy.Sessions[0].Counts().ObjectsPushed,
			InteractionPackets:    topo.ClientTrace.Len() - before,
		}
	})
	out := halves[1]
	out.DIRClientConns = halves[0].DIRClientConns
	out.DIRClientRequests = halves[0].DIRClientRequests
	return out
}

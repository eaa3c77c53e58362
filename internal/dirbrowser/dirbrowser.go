// Package dirbrowser is the on-device browser of the DIR baseline (§7.1)
// and of the SPDY-proxy comparison arm (Table 1, §3/§4.3). Object
// identification happens on the device in both; they differ only in
// transport. DIR fetches every object itself over the cellular link with
// per-object HTTP request–response interactions, DNS lookups per domain, and
// up to six persistent connections per domain — the download pattern of
// Figure 5a whose round trips and short transfers PARCEL eliminates. SPDY
// multiplexes one connection per domain with compressed headers, which the
// paper expects to help only as fast as the slow client issues requests.
package dirbrowser

import (
	"time"

	"github.com/parcel-go/parcel/internal/browser"
	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/metrics"
	"github.com/parcel-go/parcel/internal/radio"
	"github.com/parcel-go/parcel/internal/scenario"
)

// Options tune the baseline.
type Options struct {
	// ConnsPerDomain is the parallel-connection cap (default 6, §8.1).
	ConnsPerDomain int
	// MaxTotalConns caps parallel connections across all domains, the way
	// 2014-era mobile engines pooled connections (default 17; 0 keeps the
	// default, -1 removes the cap).
	MaxTotalConns int
	// RequestIssueCost is the client CPU spent dispatching each HTTP
	// request (URL canonicalization, cache lookup, socket bookkeeping);
	// requests issue serially on the device (default 3 ms).
	RequestIssueCost time.Duration
	// CPU defaults to the mobile profile.
	CPU browser.CPUModel
	// FixedRandom applies the §7.3 replay rewrite.
	FixedRandom bool
}

func (o Options) withDefaults() Options {
	if o.CPU == (browser.CPUModel{}) {
		o.CPU = browser.MobileCPU()
	}
	if o.MaxTotalConns == 0 {
		o.MaxTotalConns = 17
	}
	if o.MaxTotalConns < 0 {
		o.MaxTotalConns = 0
	}
	if o.RequestIssueCost == 0 {
		o.RequestIssueCost = 3 * time.Millisecond
	}
	return o
}

// Transport is the browser's connection layer: *httpsim.Client (DIR) or
// *httpsim.SPDYClient (SPDY).
type Transport interface {
	Do(req httpsim.Request, cb func(httpsim.Response, time.Duration))
	Counts() httpsim.Counters
}

// Browser is one on-device page-load session.
type Browser struct {
	Engine *browser.Engine
	Client Transport
	topo   *scenario.Topology
	scheme string // "DIR" or "SPDY"
}

// fetcher adapts the transport to the engine, serializing request dispatch
// on the device (issueBusy models the network-stack portion of the main
// thread).
type fetcher struct {
	topo      *scenario.Topology
	c         Transport
	issueCost time.Duration
	issueBusy time.Duration
}

func (f *fetcher) Fetch(url string, cb func(browser.Result)) {
	do := func() {
		f.c.Do(httpsim.Request{Method: "GET", URL: url}, func(resp httpsim.Response, at time.Duration) {
			cb(browser.Result{
				URL: resp.URL, Status: resp.Status, ContentType: resp.ContentType,
				Body: resp.Body, At: at,
			})
		})
	}
	if f.issueCost <= 0 {
		do()
		return
	}
	sim := f.topo.Sim
	start := sim.Now()
	if start < f.issueBusy {
		start = f.issueBusy
	}
	start += f.issueCost
	f.issueBusy = start
	sim.ScheduleAt(start, do)
}

// New prepares a DIR browser on the topology: HTTP/1.1 connection pools.
func New(topo *scenario.Topology, opt Options) *Browser {
	opt = opt.withDefaults()
	client := httpsim.NewClientWithPools(topo.Sim, topo.Client, topo.Dir, topo.ClientResolver, opt.ConnsPerDomain, topo.HTTPPools)
	client.SetMaxTotalConns(opt.MaxTotalConns)
	return newBrowser(topo, "DIR", client, opt)
}

// NewSPDY prepares a SPDY browser on the topology: one multiplexed
// connection per domain, with DIR's default CPU and issue cost and the
// replay rewrite on.
func NewSPDY(topo *scenario.Topology) *Browser {
	client := httpsim.NewSPDYClient(topo.Sim, topo.Client, topo.Dir, topo.ClientResolver)
	return newBrowser(topo, "SPDY", client, Options{FixedRandom: true}.withDefaults())
}

func newBrowser(topo *scenario.Topology, scheme string, t Transport, opt Options) *Browser {
	engine := browser.New(topo.Sim, &fetcher{topo: topo, c: t, issueCost: opt.RequestIssueCost}, browser.Options{
		CPU:         opt.CPU,
		FixedRandom: opt.FixedRandom,
		ExecCache:   topo.ExecCache,
		JSPools:     topo.JSPools,
		Objects:     topo.Page.ObjectCount,
	})
	return &Browser{Engine: engine, Client: t, topo: topo, scheme: scheme}
}

// Start begins loading the topology's page without running the simulator.
func (b *Browser) Start() { b.Engine.Load(b.topo.Page.MainURL) }

// Load runs the full page download to quiescence and returns the metrics.
func (b *Browser) Load() metrics.PageRun {
	b.Start()
	b.topo.Sim.Run()
	return b.Collect()
}

// Collect assembles metrics for the session so far (callable after
// interactions too).
func (b *Browser) Collect() metrics.PageRun {
	var col metrics.Collector
	return b.CollectWith(&col)
}

// CollectWith is Collect reducing the trace through col's reusable scratch
// (for batch engines that collect many sessions per worker).
func (b *Browser) CollectWith(col *metrics.Collector) metrics.PageRun {
	run := metrics.PageRun{Scheme: b.scheme, Page: b.topo.Page.Name}
	onload, _ := b.Engine.OnloadNetAt()
	col.FromTrace(&run, b.topo.ClientTrace, onload, radio.DefaultLTE(), nil)
	run.CPUActive = b.Engine.CPUActive()
	counts := b.Client.Counts()
	run.HTTPRequests = counts.RequestsSent
	run.ConnsOpened = counts.ConnsOpened
	run.ObjectsLoaded = b.Engine.NumRequested()
	st := b.topo.Net.FaultStats()
	run.DroppedPackets = st.Dropped
	run.Retransmits = st.Retransmits
	run.RetransmitBytes = st.RetransmitBytes
	return run
}

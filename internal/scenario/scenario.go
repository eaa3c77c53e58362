// Package scenario wires the simulated evaluation topology of §7: a mobile
// client on a production-like LTE access (high RTT, moderate bandwidth,
// optional signal jitter), a well-provisioned proxy on a wired path, a DNS
// server, and one origin host per page domain — either a replay server
// colocated behind a fixed proxy↔server delay (the paper's
// web-page-replay + dummynet setup, §7.3) or "real" origins with
// heterogeneous per-domain delays (§8.4).
package scenario

import (
	"time"

	"github.com/parcel-go/parcel/internal/discovery"
	"github.com/parcel-go/parcel/internal/dnssim"
	"github.com/parcel-go/parcel/internal/eventsim"
	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/minijs"
	"github.com/parcel-go/parcel/internal/simnet"
	"github.com/parcel-go/parcel/internal/trace"
	"github.com/parcel-go/parcel/internal/webgen"
)

// Params describes one experiment topology.
type Params struct {
	Seed int64

	// LTE access characteristics (defaults follow §2.3/§8.3: RTT 70–86 ms,
	// observed download speeds 4–8 Mbps with median 6).
	LTERTT     time.Duration
	LTEDownBps int64
	LTEUpBps   int64
	LTEJitter  time.Duration

	// Wired swaps the client's access link for a wire-line profile (the
	// Figure 3 comparison).
	Wired        bool
	WiredRTT     time.Duration
	WiredDownBps int64
	WiredUpBps   int64

	// ProxyOriginRTT is the dummynet-emulated proxy↔server delay
	// (20 ms default; 60 ms for the §8.3 sensitivity study).
	ProxyOriginRTT time.Duration
	// HeterogeneousOrigins gives every domain its own proxy↔origin delay
	// drawn from 10–120 ms (the §8.4 "real web servers" setting).
	HeterogeneousOrigins bool

	ProxyBps      int64
	OriginThink   time.Duration
	DNSServerTime time.Duration

	// AccessFaults injects loss/outages on every path that crosses the
	// client's access link (client↔proxy, client↔DNS, client↔origins). The
	// zero value keeps the network fault-free and bit-identical to the
	// historical topologies.
	AccessFaults simnet.FaultParams

	// OriginFaults arms fault injection on every origin server: 503s, stalled
	// responses, truncated bodies, and timed availability flaps. The zero
	// value injects nothing and consumes no RNG, keeping fault-free runs
	// bit-identical to the historical topologies.
	OriginFaults httpsim.OriginFaults
}

// DefaultParams returns the paper-calibrated defaults.
func DefaultParams() Params {
	return Params{
		Seed:           1,
		LTERTT:         78 * time.Millisecond,
		LTEDownBps:     6_750_000 / 8, // 6.75 Mbps in bytes/s
		LTEUpBps:       2_000_000 / 8,
		LTEJitter:      0,
		WiredRTT:       12 * time.Millisecond,
		WiredDownBps:   50_000_000 / 8,
		WiredUpBps:     20_000_000 / 8,
		ProxyOriginRTT: 20 * time.Millisecond,
		ProxyBps:       200_000_000 / 8,
		OriginThink:    2 * time.Millisecond,
		DNSServerTime:  time.Millisecond,
	}
}

// Topology is a built experiment network for one page.
type Topology struct {
	Params Params
	Sim    *eventsim.Simulator
	Net    *simnet.Network

	Client *simnet.Host
	Proxy  *simnet.Host
	DNS    *simnet.Host

	ClientTrace *trace.Recorder

	// Dir maps every page domain to its origin host.
	Dir httpsim.Directory
	// ClientResolver resolves at the client (used by DIR).
	ClientResolver *dnssim.Resolver
	// ProxyResolver resolves at the proxy (used by PARCEL/CB proxies).
	ProxyResolver *dnssim.Resolver

	Page webgen.Page

	// Origins lists the per-domain origin servers in host-creation order, so
	// fault-injection harnesses can read their OriginFaultStats.
	Origins []*httpsim.Server

	// ExecCache and JSPools configure every browser engine built on this
	// topology — client, DIR and each proxy session (see browser.Options).
	// newTopology sets both when the topology draws from shared Resources
	// and leaves them zero otherwise, which is what makes a private topology
	// the reference the memoised engines are compared against.
	ExecCache bool
	JSPools   *minijs.Pools

	res *Resources
}

// Resources bundles the arena pools and scratch that a batch worker threads
// through consecutive (and interleaved) page simulations: event arena
// blocks, packet/message free lists, minijs call frames, and finished trace
// recorders. One Resources serves every simulation driven by one goroutine;
// it is not safe for concurrent use. Construct with NewResources.
type Resources struct {
	Events *eventsim.Pools
	Net    *simnet.Pools
	JS     *minijs.Pools

	recorders []*trace.Recorder
}

// NewResources returns an empty resource bundle for one worker.
func NewResources() *Resources {
	return &Resources{
		Events: eventsim.NewPools(),
		Net:    simnet.NewPools(),
		JS:     minijs.NewPools(),
	}
}

func (r *Resources) getRecorder() *trace.Recorder {
	if n := len(r.recorders); n > 0 {
		rec := r.recorders[n-1]
		r.recorders[n-1] = nil
		r.recorders = r.recorders[:n-1]
		rec.Reset()
		return rec
	}
	return &trace.Recorder{}
}

// Release returns the topology's pooled resources — event arena blocks and
// the client trace recorder — so the worker's next simulation can reuse
// them. It is only legal once the simulation has drained and every metric
// has been collected: reports copy what they keep (radio intervals, byte
// totals), so nothing may still alias the recorder or the event arena. A
// no-op for topologies built without Resources.
func (t *Topology) Release() {
	if t.res == nil {
		return
	}
	t.Sim.Release()
	if t.ClientTrace != nil {
		t.res.recorders = append(t.res.recorders, t.ClientTrace)
		t.ClientTrace = nil
	}
}

// Build constructs the network for one page. The page's objects are loaded
// into per-domain origin servers (the replay-server equivalent).
func Build(page webgen.Page, p Params) *Topology { return BuildWith(page, p, nil) }

// BuildWith is Build drawing arenas and scratch from res (nil for private
// allocations, i.e. plain Build).
func BuildWith(page webgen.Page, p Params, res *Resources) *Topology {
	if p.LTERTT == 0 {
		p = DefaultParams()
	}
	topo := newTopology(p, res)
	n := topo.Net

	clientTrace := &trace.Recorder{}
	if res != nil {
		clientTrace = res.getRecorder()
	}
	// The page's size is known here: the capture holds roughly one DATA
	// packet per MSS of body, an ACK for every other segment, and a few
	// handshake/DNS/control packets per object. Reserving that estimate makes
	// the whole capture one allocation instead of a growing block chain.
	clientTrace.Reserve(int(page.TotalBytes/simnet.MSS)*3/2 + page.ObjectCount*8 + 64)
	clientCfg := simnet.HostConfig{
		DownlinkBps: p.LTEDownBps, UplinkBps: p.LTEUpBps, Recorder: clientTrace,
	}
	accessRTT := p.LTERTT
	jitter := p.LTEJitter
	if p.Wired {
		clientCfg.DownlinkBps = p.WiredDownBps
		clientCfg.UplinkBps = p.WiredUpBps
		accessRTT = p.WiredRTT
		jitter = 0
	}
	client := n.AddHost("client", clientCfg)
	topo.Client = client
	topo.ClientTrace = clientTrace
	topo.ClientResolver = dnssim.NewResolver(client, topo.DNS)
	topo.Page = page

	n.SetPath(client, topo.Proxy, simnet.PathParams{RTT: accessRTT, Jitter: jitter})
	n.SetPath(client, topo.DNS, simnet.PathParams{RTT: accessRTT, Jitter: jitter})
	if p.AccessFaults.Active() {
		n.SetFaults(client, topo.Proxy, p.AccessFaults)
		n.SetFaults(client, topo.DNS, p.AccessFaults)
	}
	topo.addOrigins(page.Domains, page.SharedStore(), func(origin *simnet.Host, originRTT time.Duration) {
		// Client reaches origins through the LTE access plus the wired leg.
		n.SetPath(client, origin, simnet.PathParams{RTT: accessRTT + originRTT, Jitter: jitter})
		if p.AccessFaults.Active() {
			n.SetFaults(client, origin, p.AccessFaults)
		}
	})
	prewarm(page)
	return topo
}

// newTopology starts a topology: simulator, network, and the proxy-side
// hosts every topology has (proxy, DNS and the wired path between them). It
// is the one place that decides what a topology draws from res — the event
// and packet arenas, the engines' interpreter pools and the exec-outcome
// memo — so no constructor can build engines that miss one of them.
func newTopology(p Params, res *Resources) *Topology {
	topo := &Topology{Params: p, res: res}
	if res != nil {
		topo.Sim = eventsim.NewWithPools(p.Seed, res.Events)
		topo.Net = simnet.NewWithPools(topo.Sim, res.Net)
		topo.ExecCache = true
		topo.JSPools = res.JS
	} else {
		topo.Sim = eventsim.New(p.Seed)
		topo.Net = simnet.New(topo.Sim)
	}
	n := topo.Net
	topo.Proxy = n.AddHost("proxy", simnet.HostConfig{DownlinkBps: p.ProxyBps, UplinkBps: p.ProxyBps})
	topo.DNS = n.AddHost("dns", simnet.HostConfig{})
	n.SetPath(topo.Proxy, topo.DNS, simnet.PathParams{RTT: 2 * time.Millisecond})
	dnssim.NewServer(topo.Sim, topo.DNS, p.DNSServerTime)
	topo.ProxyResolver = dnssim.NewResolver(topo.Proxy, topo.DNS)
	return topo
}

// addOrigins creates one origin host and server per domain, in the order
// given, each serving store behind its own proxy↔origin path. wire, when
// non-nil, adds whatever else reaches the new origin (the client's direct
// path).
func (t *Topology) addOrigins(domains []string, store httpsim.Store, wire func(origin *simnet.Host, originRTT time.Duration)) {
	p, n := t.Params, t.Net
	rng := t.Sim.Rand()
	t.Dir = make(httpsim.Directory, len(domains))
	t.Origins = make([]*httpsim.Server, 0, len(domains))
	for _, domain := range domains {
		origin := n.AddHost("origin:"+domain, simnet.HostConfig{DownlinkBps: p.ProxyBps, UplinkBps: p.ProxyBps})
		originRTT := p.ProxyOriginRTT
		if p.HeterogeneousOrigins {
			originRTT = time.Duration(10+rng.Intn(110)) * time.Millisecond
		}
		n.SetPath(t.Proxy, origin, simnet.PathParams{RTT: originRTT})
		if wire != nil {
			wire(origin, originRTT)
		}
		srv := httpsim.NewServer(t.Sim, origin, store, p.OriginThink)
		if p.OriginFaults.Active() {
			if err := srv.SetFaults(p.OriginFaults); err != nil {
				panic("scenario: bad origin faults: " + err.Error())
			}
		}
		t.Origins = append(t.Origins, srv)
		t.Dir[domain] = origin
	}
}

// prewarm fills the process-wide artifact and program caches with the page's
// objects: every scheme, sweep round and tenant session that loads this page
// then hits cached DOM trees, CSS ref lists, and compiled scripts instead of
// re-parsing identical bytes per engine.
func prewarm(page webgen.Page) {
	for _, obj := range page.Objects {
		discovery.Prewarm(obj.URL, obj.ContentType, obj.Body)
	}
}

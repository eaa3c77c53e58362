// Package scenario wires the simulated evaluation topology of §7: a mobile
// client on a production-like LTE access (high RTT, moderate bandwidth,
// optional signal jitter), a well-provisioned proxy on a wired path, a DNS
// server, and one origin host per page domain — either a replay server
// colocated behind a fixed proxy↔server delay (the paper's
// web-page-replay + dummynet setup, §7.3) or "real" origins with
// heterogeneous per-domain delays (§8.4).
package scenario

import (
	"cmp"
	"time"

	"github.com/parcel-go/parcel/internal/dnssim"
	"github.com/parcel-go/parcel/internal/eventsim"
	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/minijs"
	"github.com/parcel-go/parcel/internal/simnet"
	"github.com/parcel-go/parcel/internal/trace"
	"github.com/parcel-go/parcel/internal/webgen"
)

// The calibrated links every topology is built from. The access follows
// §2.3/§8.3 (LTE RTT 70–86 ms, observed download speeds 4–8 Mbps with median
// 6); the wire-line profile is Figure 3's desktop access; the proxy and the
// origins sit on well-provisioned wired links (§4.3), and the replay origins
// answer after a fixed think time (§7.3).
const (
	lteRTT     = 78 * time.Millisecond
	lteDownBps = 6_750_000 / 8 // 6.75 Mbps in bytes/s
	lteUpBps   = 2_000_000 / 8

	wiredRTT     = 12 * time.Millisecond
	wiredDownBps = 50_000_000 / 8
	wiredUpBps   = 20_000_000 / 8

	proxyBps      = 200_000_000 / 8
	originThink   = 2 * time.Millisecond
	dnsServerTime = time.Millisecond

	// defaultProxyOriginRTT is the dummynet proxy↔server delay a zero
	// Params.ProxyOriginRTT stands for.
	defaultProxyOriginRTT = 20 * time.Millisecond
)

// Params is what an experiment varies of the calibrated topology. The zero
// value of every field is the calibrated setting, so a caller sets only the
// fields it changes.
type Params struct {
	// Seed seeds the simulator (jitter, heterogeneous origin delays, faults).
	Seed int64

	// LTEJitter adds per-packet delay noise on the LTE access.
	LTEJitter time.Duration

	// Wired swaps the client's access link for the wire-line profile (the
	// Figure 3 comparison).
	Wired bool

	// ProxyOriginRTT is the dummynet-emulated proxy↔server delay
	// (0 means 20 ms; 60 ms for the §8.3 sensitivity study).
	ProxyOriginRTT time.Duration
	// HeterogeneousOrigins gives every domain its own proxy↔origin delay
	// drawn from 10–120 ms (the §8.4 "real web servers" setting).
	HeterogeneousOrigins bool

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

// DefaultParams returns the paper-calibrated defaults: seed 1 and the 20 ms
// proxy↔server delay.
func DefaultParams() Params {
	return Params{Seed: 1, ProxyOriginRTT: defaultProxyOriginRTT}
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
	// HTTPPools supplies the request structs of every httpsim client built
	// on this topology (httpsim.NewClientWithPools); nil when the topology
	// draws from no Resources.
	HTTPPools *httpsim.Pools

	res *Resources
}

// Resources bundles the arena pools and scratch that a batch worker threads
// through the page simulations it runs one after another: event arena
// blocks, packet/message free lists, minijs call frames, HTTP request
// structs, and finished trace recorders. One Resources serves every simulation driven by one goroutine;
// it is not safe for concurrent use. Construct with NewResources.
type Resources struct {
	Events *eventsim.Pools
	Net    *simnet.Pools
	JS     *minijs.Pools
	HTTP   *httpsim.Pools

	recorders []*trace.Recorder
}

// NewResources returns an empty resource bundle for one worker.
func NewResources() *Resources {
	return &Resources{
		Events: eventsim.NewPools(),
		Net:    simnet.NewPools(),
		JS:     minijs.NewPools(),
		HTTP:   httpsim.NewPools(),
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
		DownlinkBps: lteDownBps, UplinkBps: lteUpBps, Recorder: clientTrace,
	}
	accessRTT := lteRTT
	jitter := p.LTEJitter
	if p.Wired {
		clientCfg.DownlinkBps = wiredDownBps
		clientCfg.UplinkBps = wiredUpBps
		accessRTT = wiredRTT
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
		topo.HTTPPools = res.HTTP
	} else {
		topo.Sim = eventsim.New(p.Seed)
		topo.Net = simnet.New(topo.Sim)
	}
	n := topo.Net
	topo.Proxy = n.AddHost("proxy", simnet.HostConfig{DownlinkBps: proxyBps, UplinkBps: proxyBps})
	topo.DNS = n.AddHost("dns", simnet.HostConfig{})
	n.SetPath(topo.Proxy, topo.DNS, simnet.PathParams{RTT: 2 * time.Millisecond})
	dnssim.NewServer(topo.Sim, topo.DNS, dnsServerTime)
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
		origin := n.AddHost("origin:"+domain, simnet.HostConfig{DownlinkBps: proxyBps, UplinkBps: proxyBps})
		originRTT := cmp.Or(p.ProxyOriginRTT, defaultProxyOriginRTT)
		if p.HeterogeneousOrigins {
			originRTT = time.Duration(10+rng.Intn(110)) * time.Millisecond
		}
		n.SetPath(t.Proxy, origin, simnet.PathParams{RTT: originRTT})
		if wire != nil {
			wire(origin, originRTT)
		}
		srv := httpsim.NewServer(t.Sim, origin, store, originThink)
		if p.OriginFaults.Active() {
			if err := srv.SetFaults(p.OriginFaults); err != nil {
				panic("scenario: bad origin faults: " + err.Error())
			}
		}
		t.Origins = append(t.Origins, srv)
		t.Dir[domain] = origin
	}
}

package scenario

import (
	"sort"
	"strconv"
	"time"

	"github.com/parcel-go/parcel/internal/discovery"
	"github.com/parcel-go/parcel/internal/dnssim"
	"github.com/parcel-go/parcel/internal/eventsim"
	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/simnet"
	"github.com/parcel-go/parcel/internal/webgen"
)

// Fleet is the multi-tenant experiment network: one proxy and one origin set
// serving many independent mobile clients, each behind its own LTE access
// link. It reuses Topology for everything proxy-side (core.StartProxy takes
// it unchanged); the tenants are extra access hosts sharing the simulator.
type Fleet struct {
	*Topology

	// Tenants are the per-client access hosts, one per simulated user.
	Tenants []*simnet.Host
	// Pages is the page set the fleet loads (the union of their objects backs
	// the origin servers).
	Pages []webgen.Page
}

// BuildFleet constructs a fleet network: origin hosts for every domain across
// pages (each domain served once, with the union store), a proxy, DNS, and
// tenants access hosts. Domains are deduplicated and sorted so host creation
// order — and with it every seeded draw — is a pure function of the inputs.
func BuildFleet(pages []webgen.Page, tenants int, p Params) *Fleet {
	if p.LTERTT == 0 {
		p = DefaultParams()
	}
	sim := eventsim.New(p.Seed)
	n := simnet.New(sim)

	proxy := n.AddHost("proxy", simnet.HostConfig{DownlinkBps: p.ProxyBps, UplinkBps: p.ProxyBps})
	dns := n.AddHost("dns", simnet.HostConfig{})
	n.SetPath(proxy, dns, simnet.PathParams{RTT: 2 * time.Millisecond})

	// Union the page stores and collect the distinct domains in sorted order.
	store := make(httpsim.MapStore)
	seen := make(map[string]bool)
	domains := make([]string, 0, 8)
	for _, page := range pages {
		for url, obj := range page.SharedStore() {
			store[url] = obj
		}
		for _, domain := range page.Domains {
			if !seen[domain] {
				seen[domain] = true
				domains = append(domains, domain)
			}
		}
	}
	sort.Strings(domains)

	rng := sim.Rand()
	dir := make(httpsim.Directory, len(domains))
	origins := make([]*httpsim.Server, 0, len(domains))
	for _, domain := range domains {
		origin := n.AddHost("origin:"+domain, simnet.HostConfig{DownlinkBps: p.ProxyBps, UplinkBps: p.ProxyBps})
		originRTT := p.ProxyOriginRTT
		if p.HeterogeneousOrigins {
			originRTT = time.Duration(10+rng.Intn(110)) * time.Millisecond
		}
		n.SetPath(proxy, origin, simnet.PathParams{RTT: originRTT})
		srv := httpsim.NewServer(sim, origin, store, p.OriginThink)
		if p.OriginFaults.Active() {
			if err := srv.SetFaults(p.OriginFaults); err != nil {
				panic("scenario: bad origin faults: " + err.Error())
			}
		}
		origins = append(origins, srv)
		dir[domain] = origin
	}
	dnssim.NewServer(sim, dns, p.DNSServerTime)

	// Tenants only talk to the proxy (load clients have no engine and no
	// direct-origin path), so one access path each suffices.
	accessRTT := p.LTERTT
	hosts := make([]*simnet.Host, tenants)
	for i := range hosts {
		h := n.AddHost("tenant:"+strconv.Itoa(i), simnet.HostConfig{
			DownlinkBps: p.LTEDownBps, UplinkBps: p.LTEUpBps,
		})
		n.SetPath(h, proxy, simnet.PathParams{RTT: accessRTT, Jitter: p.LTEJitter})
		hosts[i] = h
	}

	for _, page := range pages {
		for _, obj := range page.Objects {
			discovery.Prewarm(obj.URL, obj.ContentType, obj.Body)
		}
	}

	topo := &Topology{
		Params:        p,
		Sim:           sim,
		Net:           n,
		Proxy:         proxy,
		DNS:           dns,
		Dir:           dir,
		Origins:       origins,
		ProxyResolver: dnssim.NewResolver(proxy, dns),
		// Page seeds the proxy sessions' map-capacity hints; the first page
		// is as good a guess as any for a homogeneous fleet.
		Page: pages[0],
	}
	return &Fleet{Topology: topo, Tenants: hosts, Pages: pages}
}

package scenario

import (
	"sort"
	"strconv"

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
// res is BuildWith's: nil builds a private fleet whose session engines
// interpret every script, the reference the memoised fleet is compared to.
func BuildFleet(pages []webgen.Page, tenants int, p Params, res *Resources) *Fleet {
	if p.LTERTT == 0 {
		p = DefaultParams()
	}
	topo := newTopology(p, res)
	// Page seeds the proxy sessions' map-capacity hints; the first page is as
	// good a guess as any for a homogeneous fleet.
	topo.Page = pages[0]

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
	topo.addOrigins(domains, store, nil)

	// Tenants only talk to the proxy (load clients have no engine and no
	// direct-origin path), so one access path each suffices.
	hosts := make([]*simnet.Host, tenants)
	for i := range hosts {
		h := topo.Net.AddHost("tenant:"+strconv.Itoa(i), simnet.HostConfig{
			DownlinkBps: p.LTEDownBps, UplinkBps: p.LTEUpBps,
		})
		topo.Net.SetPath(h, topo.Proxy, simnet.PathParams{RTT: p.LTERTT, Jitter: p.LTEJitter})
		hosts[i] = h
	}

	for _, page := range pages {
		prewarm(page)
	}
	return &Fleet{Topology: topo, Tenants: hosts, Pages: pages}
}

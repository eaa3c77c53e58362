package parcelnet

import (
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/metrics"
	"github.com/parcel-go/parcel/internal/netem"
	"github.com/parcel-go/parcel/internal/objcache"
	"github.com/parcel-go/parcel/internal/sched"
)

// LoadgenConfig describes one multi-tenant load-generation run: a fleet of
// concurrent simulated clients loading pages through one sharded proxy over
// real TCP, optionally shaped per-client with netem.
type LoadgenConfig struct {
	// Clients is the fleet size (concurrent sessions).
	Clients int
	// Store backs the origin (wrap an archive in replay.Rewriting to get
	// session-specific bytes rewritten).
	Store httpsim.Store
	// URLs are the page URLs tenants load, assigned round-robin.
	URLs []string
	// Sched is the proxy's bundle schedule.
	Sched sched.Config

	// Shards, CacheBytes, SessionPushBudget, ProxyPushBudget configure the
	// proxy (see ProxyConfig).
	Shards            int
	CacheBytes        int64
	SessionPushBudget int64
	ProxyPushBudget   int64

	// Netem, when non-nil, shapes every client's read side with these
	// parameters (the cellular access link).
	Netem *netem.Params
	// QuietPeriod is the proxy's §4.5 window (default 200 ms — load runs
	// want throughput, not fidelity to the 2 s production default).
	QuietPeriod time.Duration
	// Timeout bounds each session's wait for completion (default 60 s).
	Timeout time.Duration
	// Stagger spaces session starts to avoid a pure thundering herd
	// (default 0: all at once).
	Stagger time.Duration
	// FixedRandom applies the replay rewrite in page JS.
	FixedRandom bool
	// Mux runs every tenant over the parcelmux stream layer (prioritized,
	// flow-controlled streams) instead of monolithic bundles.
	Mux bool
	// MuxChunkSize, MuxStreamWindow, MuxConnWindow tune the stream layer
	// (see ProxyConfig); zero values take the defaults.
	MuxChunkSize    int
	MuxStreamWindow int64
	MuxConnWindow   int64
	// Logf, when set, receives proxy diagnostics.
	Logf func(format string, args ...any)
}

// LoadgenResult is everything a load run measured.
type LoadgenResult struct {
	Loads  []metrics.SessionLoad
	Report metrics.FleetReport
	Cache  objcache.Stats
	// ProxyDeferred and ProxyShed are the proxy-wide admission counters.
	ProxyDeferred int64
	ProxyShed     int64
	// SessionsServed is the proxy's accept count (== Clients when every
	// session connected).
	SessionsServed int
}

// RunLoadgen starts an origin and a sharded proxy, drives cfg.Clients
// concurrent sessions through them, and aggregates the fleet report. It
// tears everything down before returning, so a leak-checked test can call it
// directly.
func RunLoadgen(cfg LoadgenConfig) (LoadgenResult, error) {
	if cfg.Clients <= 0 {
		return LoadgenResult{}, fmt.Errorf("parcelnet: loadgen needs Clients > 0")
	}
	if len(cfg.URLs) == 0 {
		return LoadgenResult{}, fmt.Errorf("parcelnet: loadgen needs at least one URL")
	}
	if cfg.QuietPeriod == 0 {
		cfg.QuietPeriod = 200 * time.Millisecond
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 60 * time.Second
	}
	origin, err := StartOrigin("127.0.0.1:0", cfg.Store)
	if err != nil {
		return LoadgenResult{}, err
	}
	defer origin.Close()
	proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
		OriginAddr:        origin.Addr(),
		Sched:             cfg.Sched,
		QuietPeriod:       cfg.QuietPeriod,
		FixedRandom:       cfg.FixedRandom,
		Shards:            cfg.Shards,
		CacheBytes:        cfg.CacheBytes,
		SessionPushBudget: cfg.SessionPushBudget,
		ProxyPushBudget:   cfg.ProxyPushBudget,
		MuxChunkSize:      cfg.MuxChunkSize,
		MuxStreamWindow:   cfg.MuxStreamWindow,
		MuxConnWindow:     cfg.MuxConnWindow,
		Logf:              cfg.Logf,
	})
	if err != nil {
		return LoadgenResult{}, err
	}
	defer proxy.Close()

	var dial dialFunc
	if cfg.Netem != nil {
		p := *cfg.Netem
		dial = func(network, addr string) (net.Conn, error) {
			conn, err := net.DialTimeout(network, addr, 5*time.Second)
			if err != nil {
				return nil, err
			}
			return netem.Wrap(conn, p), nil
		}
	}

	loads := make([]metrics.SessionLoad, cfg.Clients)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		if cfg.Stagger > 0 && i > 0 {
			time.Sleep(cfg.Stagger)
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			loads[id] = runTenant(id, proxy.Addr(), origin.Addr(), cfg, dial)
		}(i)
	}
	wg.Wait()

	res := LoadgenResult{
		Loads:          loads,
		Report:         metrics.Fleet(loads),
		Cache:          proxy.CacheStats(),
		ProxyDeferred:  proxy.DeferredTotal(),
		ProxyShed:      proxy.ShedTotal(),
		SessionsServed: proxy.SessionsServed(),
	}
	res.Report.BreakerOpens = proxy.ResilienceStats().BreakerOpens
	return res, nil
}

// runTenant drives one session: connect, request the page, wait for
// completion, snapshot the sample. Failures (dial errors, timeouts) produce
// an incomplete sample rather than aborting the fleet.
func runTenant(id int, proxyAddr, originAddr string, cfg LoadgenConfig, dial dialFunc) metrics.SessionLoad {
	url := cfg.URLs[id%len(cfg.URLs)]
	client, err := DialConfig(proxyAddr, ClientConfig{
		Dial:         dial,
		DirectOrigin: originAddr,
		Seed:         int64(id) + 1,
		Mux:          cfg.Mux,
	})
	if err != nil {
		return metrics.SessionLoad{ID: id, Page: url}
	}
	defer client.Close()
	if err := client.RequestPage(url, "loadgen", "1280x800"); err != nil {
		return metrics.SessionLoad{ID: id, Page: url}
	}
	client.WaitComplete(cfg.Timeout)
	return client.SessionLoad(id)
}

package parcelnet

import (
	"fmt"
	"sync"
	"time"

	"github.com/parcel-go/parcel/internal/metrics"
	"github.com/parcel-go/parcel/internal/objcache"
	"github.com/parcel-go/parcel/internal/replay"
	"github.com/parcel-go/parcel/internal/resilience"
)

// ChaosConfig describes one chaos load run: the LoadgenConfig fleet driven
// while the origin injects faults and the proxy is drained and restarted
// mid-run. The run is healthy when every session still completes — retries
// carry fetches over transient faults, serve-stale and DIR fallback cover the
// rest, and the drain hands live sessions to the restarted proxy.
type ChaosConfig struct {
	// Loadgen is the base fleet (clients, store, URLs, schedule, budgets).
	Loadgen LoadgenConfig
	// Faults arms origin fault injection for the whole run. The zero value
	// injects nothing (a drain/restart-only run).
	Faults replay.OriginFaults
	// Resilience is the proxy's origin-fetch discipline; zero fields take the
	// resilience defaults.
	Resilience resilience.Policy
	// CacheFreshFor is the shared cache's freshness window (serve-stale arms
	// beyond it); 0 means entries never go stale.
	CacheFreshFor time.Duration
	// DrainAfter is how long after the fleet launches the proxy drain fires
	// (default 1 s). DrainTimeout bounds the drain itself (default 2 s). The
	// proxy is restarted on the same address immediately after the drain, so
	// interrupted clients resume against the new incarnation.
	DrainAfter   time.Duration
	DrainTimeout time.Duration
}

// ChaosResult is a chaos run's full measurement. Sessions that completed
// after the drain began are tagged Phase 1, so Report.PhaseP99 separates
// steady-state latency from recovery latency.
type ChaosResult struct {
	LoadgenResult
	// DrainedSessions counts sessions the first proxy incarnation handed a
	// TDrain notice.
	DrainedSessions int64
	// Faults tallies what the origin actually injected.
	Faults replay.FaultStats
	// Resilience sums both proxy incarnations' retry/breaker counters.
	Resilience ResilienceStats
}

// RunChaosLoadgen drives cfg.Loadgen.Clients sessions through a faulted
// origin and a proxy that is drained and restarted mid-run, then aggregates
// the fleet report. Everything is torn down before returning, so leak-checked
// tests can call it directly.
func RunChaosLoadgen(cfg ChaosConfig) (ChaosResult, error) {
	lg := cfg.Loadgen
	if lg.Clients <= 0 {
		return ChaosResult{}, fmt.Errorf("parcelnet: chaos loadgen needs Clients > 0")
	}
	if len(lg.URLs) == 0 {
		return ChaosResult{}, fmt.Errorf("parcelnet: chaos loadgen needs at least one URL")
	}
	if lg.QuietPeriod == 0 {
		lg.QuietPeriod = 200 * time.Millisecond
	}
	if lg.Timeout == 0 {
		lg.Timeout = 60 * time.Second
	}
	if cfg.DrainAfter == 0 {
		cfg.DrainAfter = time.Second
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 2 * time.Second
	}

	origin, err := StartOrigin("127.0.0.1:0", lg.Store)
	if err != nil {
		return ChaosResult{}, err
	}
	defer origin.Close()
	if cfg.Faults.Active() {
		fi, err := replay.NewFaultInjector(cfg.Faults)
		if err != nil {
			return ChaosResult{}, err
		}
		origin.SetFaults(fi)
	}

	pcfg := ProxyConfig{
		OriginAddr:        origin.Addr(),
		Sched:             lg.Sched,
		QuietPeriod:       lg.QuietPeriod,
		FixedRandom:       lg.FixedRandom,
		Shards:            lg.Shards,
		CacheBytes:        lg.CacheBytes,
		SessionPushBudget: lg.SessionPushBudget,
		ProxyPushBudget:   lg.ProxyPushBudget,
		MuxChunkSize:      lg.MuxChunkSize,
		MuxStreamWindow:   lg.MuxStreamWindow,
		MuxConnWindow:     lg.MuxConnWindow,
		Resilience:        cfg.Resilience,
		CacheFreshFor:     cfg.CacheFreshFor,
		Logf:              lg.Logf,
	}
	proxy1, err := StartProxy("127.0.0.1:0", pcfg)
	if err != nil {
		return ChaosResult{}, err
	}
	addr := proxy1.Addr()

	// The chaos controller: drain the first incarnation mid-run, then bring a
	// second one up on the same address so interrupted clients can resume.
	var (
		proxy2     *Proxy
		restartErr error
		drainStart time.Time
	)
	ctlDone := make(chan struct{})
	go func() {
		defer close(ctlDone)
		time.Sleep(cfg.DrainAfter)
		drainStart = time.Now()
		proxy1.Drain(cfg.DrainTimeout)
		for i := 0; i < 250; i++ {
			proxy2, restartErr = StartProxy(addr, pcfg)
			if restartErr == nil {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	loads := make([]metrics.SessionLoad, lg.Clients)
	completions := make([]time.Time, lg.Clients)
	var wg sync.WaitGroup
	for i := 0; i < lg.Clients; i++ {
		if lg.Stagger > 0 && i > 0 {
			time.Sleep(lg.Stagger)
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			loads[id], completions[id] = chaosTenant(id, addr, origin.Addr(), lg)
		}(i)
	}
	wg.Wait()
	<-ctlDone
	if restartErr != nil {
		proxy1.Close()
		return ChaosResult{}, fmt.Errorf("parcelnet: proxy restart on %s: %w", addr, restartErr)
	}
	defer proxy2.Close()

	// Sessions that finished after the drain began lived through the handoff:
	// tag them Phase 1 so the report's PhaseP99 splits steady-state latency
	// from recovery latency.
	for i := range loads {
		if loads[i].Completed && !completions[i].IsZero() && completions[i].After(drainStart) {
			loads[i].Phase = 1
		}
	}

	res := ChaosResult{
		LoadgenResult: LoadgenResult{
			Loads:          loads,
			Report:         metrics.Fleet(loads),
			ProxyDeferred:  proxy1.DeferredTotal() + proxy2.DeferredTotal(),
			ProxyShed:      proxy1.ShedTotal() + proxy2.ShedTotal(),
			SessionsServed: proxy1.SessionsServed() + proxy2.SessionsServed(),
		},
		DrainedSessions: proxy1.DrainedSessions(),
		Faults:          origin.FaultStats(),
	}
	res.Cache = sumCacheStats(proxy1.CacheStats(), proxy2.CacheStats())
	r1, r2 := proxy1.ResilienceStats(), proxy2.ResilienceStats()
	res.Resilience = ResilienceStats{
		Retries:          r1.Retries + r2.Retries,
		BreakerOpens:     r1.BreakerOpens + r2.BreakerOpens,
		BreakerFastFails: r1.BreakerFastFails + r2.BreakerFastFails,
	}
	res.Report.BreakerOpens = res.Resilience.BreakerOpens
	return res, nil
}

// chaosTenant drives one session through the chaos run. Unlike the plain
// loadgen tenant it retries session startup — a tenant starting inside the
// drain/restart window finds no listener for a moment, or lands a connection
// in the dying listener's accept backlog that resets before the page request
// is on the wire — and reports when its page completed so the harness can
// phase-tag it.
func chaosTenant(id int, proxyAddr, originAddr string, lg LoadgenConfig) (metrics.SessionLoad, time.Time) {
	url := lg.URLs[id%len(lg.URLs)]
	ccfg := ClientConfig{
		DirectOrigin: originAddr,
		Seed:         int64(id) + 1,
		Mux:          lg.Mux,
		MaxRetries:   8,
	}
	var client *Client
	for attempt := 0; ; attempt++ {
		c, err := DialConfig(proxyAddr, ccfg)
		if err == nil {
			err = c.RequestPage(url, "chaosgen", "1280x800")
			if err == nil {
				client = c
				break
			}
			c.Close()
		}
		if attempt >= 50 {
			return metrics.SessionLoad{ID: id, Page: url}, time.Time{}
		}
		time.Sleep(100 * time.Millisecond)
	}
	defer client.Close()
	client.WaitComplete(lg.Timeout)
	load := client.SessionLoad(id)
	client.mu.Lock()
	completedAt := client.CompleteAt
	client.mu.Unlock()
	return load, completedAt
}

// sumCacheStats merges the two proxy incarnations' cache counters (the
// capacity is shared config, not additive).
func sumCacheStats(a, b objcache.Stats) objcache.Stats {
	return objcache.Stats{
		Hits:        a.Hits + b.Hits,
		Misses:      a.Misses + b.Misses,
		Evictions:   a.Evictions + b.Evictions,
		Shared:      a.Shared + b.Shared,
		StaleServes: a.StaleServes + b.StaleServes,
		NegHits:     a.NegHits + b.NegHits,
		Entries:     a.Entries + b.Entries,
		Bytes:       a.Bytes + b.Bytes,
		Capacity:    a.Capacity,
	}
}

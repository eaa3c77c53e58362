package parcelnet

import (
	"net"
	"sync"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/leakcheck"
	"github.com/parcel-go/parcel/internal/metrics"
	"github.com/parcel-go/parcel/internal/netem"
	"github.com/parcel-go/parcel/internal/replay"
	"github.com/parcel-go/parcel/internal/resilience"
	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/webgen"
)

// fleetConfig describes one multi-tenant run over real TCP: a fleet of
// concurrent clients loading pages through one ONLD proxy with the
// shared object cache. Faults, a non-default resilience policy and a mid-run
// drain/restart are things the config turns on, not a second harness: the
// zero value of each leaves that machinery idle.
type fleetConfig struct {
	// clients is the fleet size; urls are assigned to tenants round-robin
	// and served by an origin backed by store.
	clients int
	store   httpsim.Store
	urls    []string

	// cacheBytes is the proxy's ProxyConfig.CacheBytes.
	cacheBytes int64
	// quietPeriod is the proxy's §4.5 window (default 200 ms — fleet runs
	// want throughput, not fidelity to the 2 s production default).
	quietPeriod time.Duration
	// resilience is the proxy's origin-fetch discipline; zero fields take
	// the resilience defaults.
	resilience resilience.Policy

	// netem, when non-zero, shapes the read side of every connection a
	// tenant opens (the cellular access link), reconnects included.
	netem netem.Params
	// stagger spaces session starts (0: a pure thundering herd).
	stagger time.Duration

	// faults arms origin fault injection for the whole run, on an RNG
	// seeded by faultSeed.
	faults    httpsim.OriginFaults
	faultSeed int64
	// drainAfter, when non-zero, drains the proxy that long after the fleet
	// launches (bounded by drainTimeout) and restarts it on the same address
	// at once, so interrupted clients resume against the new incarnation.
	drainAfter   time.Duration
	drainTimeout time.Duration
}

// fleetResult is what a fleet run measured. Proxy-side counters sum both
// incarnations when the run drained and restarted the proxy.
type fleetResult struct {
	// loads are the per-session samples report aggregates, by tenant id.
	loads  []metrics.SessionLoad
	report metrics.FleetReport
	// sessionsServed is the proxies' accept count (== clients when nobody
	// reconnected).
	sessionsServed int
	// cacheShares counts lookups the shared cache answered without an origin
	// fetch of their own: hits plus joins of an in-flight fetch.
	cacheShares int64
	// originRetries counts the proxies' origin re-attempts.
	originRetries int64
	// drainNotices counts sessions the first incarnation handed a TDrain.
	drainNotices int64
	// faults tallies what the origin actually injected.
	faults httpsim.OriginFaultStats
}

// fleetTimeout bounds each session's wait for completion.
const fleetTimeout = 120 * time.Second

// runFleet starts an origin and a proxy, drives cfg.clients concurrent
// sessions through them — draining and restarting the proxy under them when
// the config says so — and aggregates the fleet report. Everything is torn
// down before it returns, so leak-checked tests call it directly. Sessions
// that completed after a drain began are tagged Phase 1, so report.PhaseP99
// separates steady-state latency from recovery latency.
func runFleet(t *testing.T, cfg fleetConfig) fleetResult {
	t.Helper()
	if cfg.quietPeriod == 0 {
		cfg.quietPeriod = 200 * time.Millisecond
	}
	origin, err := StartOrigin("127.0.0.1:0", cfg.store)
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	if err := origin.SetFaults(cfg.faults, cfg.faultSeed); err != nil {
		t.Fatal(err)
	}
	pcfg := ProxyConfig{
		OriginAddr:  origin.Addr(),
		Sched:       sched.ConfigONLD,
		QuietPeriod: cfg.quietPeriod,
		FixedRandom: true,
		CacheBytes:  cfg.cacheBytes,
		Resilience:  cfg.resilience,
	}
	first, err := StartProxy("127.0.0.1:0", pcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close() // a no-op after Drain
	addr := first.Addr()

	// The drain controller: retire the first incarnation mid-run, then bring
	// a second one up on the same address so interrupted clients can resume.
	var (
		restarted  *Proxy
		restartErr error
		drainStart time.Time
	)
	ctlDone := make(chan struct{})
	go func() {
		defer close(ctlDone)
		if cfg.drainAfter == 0 {
			return
		}
		time.Sleep(cfg.drainAfter)
		drainStart = time.Now()
		first.Drain(cfg.drainTimeout)
		for i := 0; i < 250; i++ {
			if restarted, restartErr = StartProxy(addr, pcfg); restartErr == nil {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	ccfg := ClientConfig{DirectOrigin: origin.Addr()}
	if cfg.netem != (netem.Params{}) {
		ccfg.Dial = func(network, addr string) (net.Conn, error) {
			conn, err := net.DialTimeout(network, addr, 5*time.Second)
			if err != nil {
				return nil, err
			}
			return netem.Wrap(conn, cfg.netem), nil
		}
	}
	// A tenant starting inside the drain/restart window finds no listener for
	// a moment, or lands in the dying listener's accept backlog and is reset
	// before its page request is on the wire: with a drain configured, session
	// startup retries and the reconnect budget is raised. Without one, a
	// refused session is a failed session.
	startAttempts := 1
	if cfg.drainAfter > 0 {
		ccfg.MaxRetries = 8
		startAttempts = 50
	}

	loads := make([]metrics.SessionLoad, cfg.clients)
	completions := make([]time.Time, cfg.clients)
	var wg sync.WaitGroup
	for i := 0; i < cfg.clients; i++ {
		if cfg.stagger > 0 && i > 0 {
			time.Sleep(cfg.stagger)
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tcfg := ccfg
			tcfg.Seed = int64(id) + 1
			loads[id], completions[id] = fleetTenant(id, addr, cfg.urls[id%len(cfg.urls)], tcfg, startAttempts)
		}(i)
	}
	wg.Wait()
	<-ctlDone
	proxies := []*Proxy{first}
	if cfg.drainAfter > 0 {
		if restartErr != nil {
			t.Fatalf("proxy restart on %s: %v", addr, restartErr)
		}
		defer restarted.Close()
		proxies = append(proxies, restarted)
		for i := range loads {
			if loads[i].Completed && completions[i].After(drainStart) {
				loads[i].Phase = 1
			}
		}
	}

	res := fleetResult{
		loads:        loads,
		report:       metrics.Fleet(loads),
		drainNotices: first.DrainedSessions(),
		faults:       origin.FaultStats(),
	}
	for _, p := range proxies {
		res.sessionsServed += p.SessionsServed()
		cs, rs := p.CacheStats(), p.ResilienceStats()
		res.cacheShares += int64(cs.Hits + cs.Shared)
		res.originRetries += rs.Retries
		res.report.BreakerOpens += rs.BreakerOpens
	}
	return res
}

// fleetTenant drives one session: connect and request the page (startAttempts
// tries, 100 ms apart), wait for completion, snapshot the sample and when it
// completed. A session that never starts or never finishes is an incomplete
// sample, not an aborted fleet.
func fleetTenant(id int, proxyAddr, url string, ccfg ClientConfig, startAttempts int) (metrics.SessionLoad, time.Time) {
	var client *Client
	var requested time.Time
	for attempt := 1; ; attempt++ {
		c, err := DialConfig(proxyAddr, ccfg)
		if err == nil {
			requested = time.Now()
			if err = c.RequestPage(url, "fleet", "1280x800"); err == nil {
				client = c
				break
			}
			c.Close()
		}
		if attempt >= startAttempts {
			return metrics.SessionLoad{ID: id, Page: url}, time.Time{}
		}
		time.Sleep(100 * time.Millisecond)
	}
	defer client.Close()
	client.WaitComplete(fleetTimeout)
	load := client.SessionLoad(id)
	return load, requested.Add(load.Latency)
}

// fleetRow is one fleet run and the thresholds particular to it. The gates
// every run of its kind must hold are derived from the config in
// checkFleet: what a row turns on is what it is held to.
type fleetRow struct {
	// test is the Test function the row runs under, as the subtest name.
	test, name string
	// long rows are skipped under -short.
	long bool
	cfg  fleetConfig
	// pages is how many webgen seed-1 pages the tenants share round-robin —
	// the page set bench/ and the sim arm's fleet load; 0 is the
	// hand-written one-page testArchive, whose timer ad is due after adDelay
	// (0: its own 120 ms).
	pages   int
	adDelay time.Duration
	// hitRateAbove is the shared-cache hit-rate floor (exclusive).
	hitRateAbove float64
	// onePageCopy: cross-session sharing is perfect — the fleet's origin
	// bytes are exactly one copy of the page set.
	onePageCopy bool
	// noReconnects: nobody sheds to DIR or reconnects — every tenant's
	// egress covers the page weight and the proxy accepts exactly clients
	// sessions, some of them served from another's fetch.
	noReconnects bool
	// slowerThan names an earlier row of the same test whose p50 this row's
	// must exceed.
	slowerThan string
}

// chaosFaults guarantees the first crawl's fetches fail (retries carry them
// past the flap window) and keeps later fetches risky.
var chaosFaults = httpsim.OriginFaults{
	ErrorRate: 0.1,
	Flaps:     []httpsim.FlapWindow{{Start: 0, End: 80 * time.Millisecond}},
}

// chaosPolicy retries fast enough to outlive chaosFaults' flap and keeps the
// breaker quiet: the injected errors are transient.
var chaosPolicy = resilience.Policy{
	MaxRetries:       3,
	BackoffBase:      20 * time.Millisecond,
	BackoffMax:       200 * time.Millisecond,
	FailureThreshold: 1 << 20,
}

// chaos40 is the CI-sized chaos fleet: the drain fires while most of the
// staggered fleet is still mid-page. Its rows load the page with an 800 ms
// ad inside the 1 s quiet window: every session lasts at least 800 ms, so
// each one accepted before the drain is still mid-page when its 200 ms grace
// ends.
var chaos40 = fleetConfig{
	clients:      40,
	cacheBytes:   8 << 20,
	quietPeriod:  time.Second,
	stagger:      10 * time.Millisecond,
	faults:       chaosFaults,
	faultSeed:    7,
	resilience:   chaosPolicy,
	drainAfter:   120 * time.Millisecond,
	drainTimeout: 200 * time.Millisecond,
}

// shaped returns cfg with every tenant connection behind link.
func shaped(cfg fleetConfig, link netem.Params) fleetConfig {
	cfg.netem = link
	return cfg
}

var fleetRows = []fleetRow{
	// The CI-sized load run: a modest fleet over netem-shaped links. Everyone
	// completes, the shared cache shares, egress is attributed.
	{test: "TestLoadgenSmoke", name: "shaped25",
		cfg: fleetConfig{clients: 25, cacheBytes: 4 << 20,
			netem: netem.Params{Latency: 5 * time.Millisecond, Bps: 4 << 20}},
		onePageCopy: true, noReconnects: true},
	// The 200-tenant gate: the fleet bench/ and the sim arm load (200 tenants
	// × 4 pages, 256 MB), over real sockets.
	{test: "TestMuxLoadgenSmoke", name: "mux200", long: true, pages: 4,
		cfg: fleetConfig{clients: 200, cacheBytes: 256 << 20}},
	// The scale gate: ≥ 500 concurrent sessions through one proxy, leak-free.
	// Unshaped — the point is session-machinery scale, not link emulation.
	// The page's 120 ms script timer must fire inside the quiet window for
	// its origin fetch to be booked in some session's completion note; on a
	// loaded box (race detector, the rest of the suite) the default 200 ms
	// window loses that race a few times in twenty.
	{test: "TestLoadgen500Tenants", name: "one-page500", long: true,
		cfg:          fleetConfig{clients: 500, cacheBytes: 16 << 20, quietPeriod: time.Second},
		hitRateAbove: 0.9, onePageCopy: true},

	// Origin faults plus drain/restart. Joining another session's flight is
	// a hit: only the first session of each proxy incarnation pays origin
	// fetches for the one shared page.
	{test: "TestChaosLoadgenSmoke", name: "chaos40", cfg: chaos40, adDelay: 800 * time.Millisecond, hitRateAbove: 0.9},
	// The same run with every tenant connection — first dial, startup retry
	// and resume alike — behind a slow link: shaping and chaos compose.
	{test: "TestChaosLoadgenSmoke", name: "chaos40-shaped",
		cfg:     shaped(chaos40, netem.Params{Latency: 100 * time.Millisecond, Bps: 1 << 20}),
		adDelay: 800 * time.Millisecond, slowerThan: "chaos40"},
	// The 200-tenant chaos gate on the mux200 fleet. Every page's first timer
	// ad (337 ms to 2.09 s) is due inside the 2.5 s quiet window, so a tenant
	// accepted before the drain is still waiting for one when the drain's
	// 150 ms grace ends, whatever the machine's speed. Only a page whose
	// document the faults failed for good arms no timer, and all four would
	// have to fail to leave no notice (at 500 ms only page 0's timer was
	// inside, and one run in about thirty lost its document and every notice).
	{test: "TestChaosLoadgenSmoke", name: "chaos200", long: true, pages: 4,
		cfg: fleetConfig{clients: 200, cacheBytes: 256 << 20, quietPeriod: 2500 * time.Millisecond,
			stagger: 2 * time.Millisecond, faults: chaosFaults, faultSeed: 1, resilience: chaosPolicy,
			drainAfter: 150 * time.Millisecond, drainTimeout: 150 * time.Millisecond}},
	// The restart handoff in isolation: no origin faults, just a drain and
	// restart mid-run. The 800 ms ad inside the 1 s quiet window keeps every
	// session accepted before the drain mid-page past its 300 ms grace, so
	// sessions live through the handoff.
	{test: "TestChaosLoadgenDrainOnly", name: "drain-only", adDelay: 800 * time.Millisecond,
		cfg: fleetConfig{clients: 20, cacheBytes: 8 << 20, stagger: 10 * time.Millisecond,
			quietPeriod: time.Second,
			drainAfter:  250 * time.Millisecond, drainTimeout: 300 * time.Millisecond}},
}

// runFleetRows runs the rows of fleetRows that belong to the calling test, in
// order, each a leak-checked subtest.
func runFleetRows(t *testing.T) {
	p50 := make(map[string]time.Duration)
	rows := 0
	for _, row := range fleetRows {
		if row.test != t.Name() {
			continue
		}
		rows++
		t.Run(row.name, func(t *testing.T) {
			if row.long && testing.Short() {
				t.Skipf("%d-tenant fleet run skipped in -short mode", row.cfg.clients)
			}
			defer leakcheck.Check(t)()
			var archive *replay.Archive
			if row.pages > 0 {
				pages := webgen.Generate(webgen.Spec{Seed: 1, NumPages: row.pages})
				archive = replay.FromPages(pages...)
				for _, p := range pages {
					row.cfg.urls = append(row.cfg.urls, p.MainURL)
				}
			} else {
				adDelay := row.adDelay
				if adDelay == 0 {
					adDelay = 120 * time.Millisecond
				}
				var mainURL string
				archive, mainURL = testArchiveAd(adDelay)
				row.cfg.urls = []string{mainURL}
			}
			row.cfg.store = replay.Rewriting{Store: archive}
			res := runFleet(t, row.cfg)
			checkFleet(t, row, res, archive.TotalBytes())
			p50[row.name] = res.report.P50
			if row.slowerThan != "" && res.report.P50 <= p50[row.slowerThan] {
				t.Errorf("p50 = %v, not above %s's %v: the link shaped nothing",
					res.report.P50, row.slowerThan, p50[row.slowerThan])
			}
		})
	}
	if rows == 0 {
		t.Fatalf("no fleet row names %s", t.Name())
	}
}

// checkFleet holds a run to the gates its config implies. Every run: all
// sessions complete with ordered percentiles, each session's first critical
// object lands before its completion, the shared cache hits, no fallback
// request is lost silently. A fault-free, drain-free run consumes none of the always-armed
// resilience machinery; a faulted one must show the faults and the retries
// that absorbed them; a drained one must show the notices, the tagged samples
// and the recovery phase.
func checkFleet(t *testing.T, row fleetRow, res fleetResult, pageBytes int64) {
	t.Helper()
	cfg, r := row.cfg, res.report
	if r.Sessions != cfg.clients || r.Completed != cfg.clients {
		t.Fatalf("%d/%d sessions completed (%d failed)", r.Completed, cfg.clients, r.Failed)
	}
	if !(r.P50 > 0 && r.P50 <= r.P90 && r.P90 <= r.P99) {
		t.Errorf("percentiles unordered: p50=%v p90=%v p99=%v", r.P50, r.P90, r.P99)
	}
	if r.CacheHitRate <= row.hitRateAbove {
		t.Errorf("cache hit rate = %v over %d sessions, want > %v", r.CacheHitRate, cfg.clients, row.hitRateAbove)
	}
	if r.FallbackWriteErrors != 0 {
		t.Errorf("%d fallback writes silently failed", r.FallbackWriteErrors)
	}
	// Per session, not per percentile: a session whose first critical object
	// never landed, or landed after its completion, is named. With every
	// session ordered, the TTFC percentiles cannot rise above completion's.
	for _, l := range res.loads {
		if l.Completed && !(0 < l.FirstCritical && l.FirstCritical <= l.Latency) {
			t.Errorf("session %d (%s): first critical object at %v, completion at %v",
				l.ID, l.Page, l.FirstCritical, l.Latency)
		}
	}
	if row.onePageCopy && r.OriginBytes != pageBytes {
		t.Errorf("fleet origin bytes = %d, want one page copy %d", r.OriginBytes, pageBytes)
	}
	if row.noReconnects {
		if r.EgressPerSession < float64(pageBytes) {
			t.Errorf("egress/session = %v, below page weight %d", r.EgressPerSession, pageBytes)
		}
		if res.sessionsServed != cfg.clients {
			t.Errorf("sessions served = %d, want %d", res.sessionsServed, cfg.clients)
		}
		if res.cacheShares == 0 {
			t.Error("cache never shared")
		}
	}

	if cfg.faults.Active() {
		if res.faults.Total() == 0 {
			t.Error("origin injected no faults: the chaos run was not chaotic")
		}
		if res.originRetries == 0 {
			t.Error("resilient fetch path never retried through the injected errors")
		}
	} else if res.faults.Total() != 0 {
		t.Errorf("faults injected in a fault-free run: %+v", res.faults)
	}
	if cfg.drainAfter > 0 {
		if res.drainNotices == 0 {
			t.Error("no session was handed a drain notice")
		}
		if r.Drained == 0 {
			t.Error("no fleet sample tags the drain")
		}
		if len(r.PhaseP99) == 0 {
			t.Error("no per-phase percentiles: every session completed before the drain?")
		}
		if res.sessionsServed < cfg.clients {
			t.Errorf("sessions served = %d, want >= %d (resumes add more)", res.sessionsServed, cfg.clients)
		}
	}
	if !cfg.faults.Active() && cfg.drainAfter == 0 {
		if r.Retries != 0 || r.StaleServes != 0 || r.BreakerOpens != 0 {
			t.Errorf("fault-free run consumed the resilience machinery: retries=%d stale=%d breaker opens=%d",
				r.Retries, r.StaleServes, r.BreakerOpens)
		}
		// The sessions' books reconcile with the cache's own: a session hit is
		// a fresh resident entry or a joined flight, nothing else. Sessions
		// book into their completion note, so the books are equal on the rows
		// whose every fetch lands before it (onePageCopy holds origin bytes to
		// the same) and the cache's run ahead by the later fetches elsewhere.
		if r.CacheHits > res.cacheShares || (row.onePageCopy && r.CacheHits != res.cacheShares) {
			t.Errorf("sessions booked %d cache hits, the cache %d hits + joined flights", r.CacheHits, res.cacheShares)
		}
	}
	t.Logf("%d tenants: p50=%v p99=%v hit-rate=%.3f faults=%d retries=%d drain notices=%d",
		cfg.clients, r.P50, r.P99, r.CacheHitRate, res.faults.Total(), res.originRetries, res.drainNotices)
}

// The fleet tests: each runs the rows of fleetRows that name it, under the
// name CI's chaos job and the test floor know it by.
func TestLoadgenSmoke(t *testing.T)          { runFleetRows(t) }
func TestMuxLoadgenSmoke(t *testing.T)       { runFleetRows(t) }
func TestLoadgen500Tenants(t *testing.T)     { runFleetRows(t) }
func TestChaosLoadgenSmoke(t *testing.T)     { runFleetRows(t) }
func TestChaosLoadgenDrainOnly(t *testing.T) { runFleetRows(t) }

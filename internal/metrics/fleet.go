package metrics

import (
	"time"

	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/stats"
)

// SessionLoad is one tenant session's outcome in a multi-tenant load run —
// the fleet-scale unit of measurement the per-page PageRun does not cover:
// how long this user waited, what the shared object cache did for them, and
// how much origin/client traffic their session cost the proxy.
type SessionLoad struct {
	// ID is the session's index in the fleet.
	ID int
	// Page is the page the session loaded.
	Page string
	// Latency is request-to-completion (virtual time in simulation, wall
	// clock over real TCP).
	Latency time.Duration
	// FirstCritical is request-to-first-critical-object (HTML/CSS/JS — the
	// render-blocking set): the latency the mux layer's prioritization
	// targets. Zero when the session never saw a critical object.
	FirstCritical time.Duration
	// Completed reports whether the page finished; failed sessions are
	// excluded from latency percentiles but counted.
	Completed bool

	// CacheHits and CacheMisses count the session's lookups in the proxy's
	// cross-session object cache.
	CacheHits, CacheMisses int
	// EgressBytes is what the proxy pushed to this client.
	EgressBytes int64
	// OriginBytes is what the proxy fetched from origins on this session's
	// behalf (cache hits cost zero).
	OriginBytes int64
	// Deferred and Shed count push-budget admission outcomes: objects parked
	// for later delivery and objects dropped to the client's direct-origin
	// path.
	Deferred, Shed int
	// FallbackWriteErrors counts fallback object requests whose write to the
	// proxy failed — requests the proxy never saw. Nonzero means the session
	// silently lost fallbacks; load generators gate on the fleet total.
	FallbackWriteErrors int

	// Retries counts origin re-attempts the proxy's resilient fetch path made
	// on this session's behalf, plus any client-side reconnect attempts.
	Retries int
	// StaleServes counts objects served from a stale cache entry because the
	// origin was failing past its retry budget.
	StaleServes int
	// Drained reports that a proxy drain interrupted this session mid-page
	// (the client reconnected with a resume manifest or fell back to DIR).
	Drained bool
	// Phase tags the session for per-phase percentiles in chaos runs (e.g. 0 =
	// completed before the drain, 1 = after). Harness-defined.
	Phase int
}

// ClientLoad is session id's fleet sample, read off either arm's client
// session: its page, timeline and counters, and the proxy's books from its
// completion note.
func ClientLoad(id int, s *sched.ClientSession) SessionLoad {
	n := s.Note()
	return SessionLoad{ID: id, Page: s.Page(), Completed: s.Completed(),
		Latency: s.Timeline.Complete, FirstCritical: s.Timeline.FirstCritical,
		CacheHits: n.CacheHits, CacheMisses: n.CacheMisses, EgressBytes: s.BytesReceived, OriginBytes: n.OriginBytes,
		Deferred: n.Deferred, Shed: n.Shed, FallbackWriteErrors: s.FallbackWriteErrors,
		Retries: n.OriginRetries + s.Retries, StaleServes: n.StaleServes, Drained: s.Drained > 0}
}

// FleetReport aggregates a fleet run on either arm: per-session latency
// percentiles over completed sessions, cache effectiveness, and per-user
// egress.
type FleetReport struct {
	Sessions  int
	Completed int
	Failed    int

	P50, P90, P99 time.Duration

	// TTFC percentiles cover time-to-first-critical-object, over completed
	// sessions that saw at least one critical object.
	TTFCP50, TTFCP90, TTFCP99 time.Duration

	CacheHits    int64
	CacheMisses  int64
	CacheHitRate float64 // hits / (hits + misses); 0 when no lookups

	EgressBytes      int64
	EgressPerSession float64
	OriginBytes      int64
	OriginPerSession float64

	Deferred int64
	Shed     int64

	FallbackWriteErrors int64

	// Retries/StaleServes/Drained sum the fleet's resilience counters;
	// BreakerOpens is filled in by the harness from the proxy's breaker group
	// (it is proxy-wide, not per-session).
	Retries      int64
	StaleServes  int64
	Drained      int64
	BreakerOpens int64

	// PhaseP99 maps each phase tag seen in the loads to that phase's p99
	// completion latency — how the chaos harness separates "before the drain"
	// from "after the restart". Nil when every session is phase 0.
	PhaseP99 map[int]time.Duration
}

// Fleet reduces per-session loads to the fleet report. Percentiles are over
// completed sessions only; byte and cache totals cover every session.
func Fleet(loads []SessionLoad) FleetReport {
	var r FleetReport
	r.Sessions = len(loads)
	lat := make([]float64, 0, len(loads))
	ttfc := make([]float64, 0, len(loads))
	phases := make(map[int][]float64)
	phased := false
	for _, l := range loads {
		if l.Completed {
			r.Completed++
			lat = append(lat, l.Latency.Seconds())
			if l.FirstCritical > 0 {
				ttfc = append(ttfc, l.FirstCritical.Seconds())
			}
			phases[l.Phase] = append(phases[l.Phase], l.Latency.Seconds())
		} else {
			r.Failed++
		}
		if l.Phase != 0 {
			phased = true
		}
		r.CacheHits += int64(l.CacheHits)
		r.CacheMisses += int64(l.CacheMisses)
		r.EgressBytes += l.EgressBytes
		r.OriginBytes += l.OriginBytes
		r.Deferred += int64(l.Deferred)
		r.Shed += int64(l.Shed)
		r.FallbackWriteErrors += int64(l.FallbackWriteErrors)
		r.Retries += int64(l.Retries)
		r.StaleServes += int64(l.StaleServes)
		if l.Drained {
			r.Drained++
		}
	}
	if phased {
		r.PhaseP99 = make(map[int]time.Duration, len(phases))
		for ph, ls := range phases {
			r.PhaseP99[ph] = time.Duration(stats.Percentile(ls, 99) * float64(time.Second))
		}
	}
	if len(lat) > 0 {
		r.P50 = time.Duration(stats.Percentile(lat, 50) * float64(time.Second))
		r.P90 = time.Duration(stats.Percentile(lat, 90) * float64(time.Second))
		r.P99 = time.Duration(stats.Percentile(lat, 99) * float64(time.Second))
	}
	if len(ttfc) > 0 {
		r.TTFCP50 = time.Duration(stats.Percentile(ttfc, 50) * float64(time.Second))
		r.TTFCP90 = time.Duration(stats.Percentile(ttfc, 90) * float64(time.Second))
		r.TTFCP99 = time.Duration(stats.Percentile(ttfc, 99) * float64(time.Second))
	}
	if total := r.CacheHits + r.CacheMisses; total > 0 {
		r.CacheHitRate = float64(r.CacheHits) / float64(total)
	}
	if r.Sessions > 0 {
		r.EgressPerSession = float64(r.EgressBytes) / float64(r.Sessions)
		r.OriginPerSession = float64(r.OriginBytes) / float64(r.Sessions)
	}
	return r
}

package parcelnet

import (
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/leakcheck"
	"github.com/parcel-go/parcel/internal/replay"
	"github.com/parcel-go/parcel/internal/resilience"
	"github.com/parcel-go/parcel/internal/sched"
)

// TestChaosLoadgenSmoke is the CI-sized chaos run: a fleet loading through a
// faulted origin while the proxy drains and restarts under it. The gate is
// absolute — every session completes anyway — with the fault and drain
// counters proving the run actually hurt.
func TestChaosLoadgenSmoke(t *testing.T) {
	defer leakcheck.Check(t)()
	archive, mainURL := testArchive()
	res, err := RunChaosLoadgen(ChaosConfig{
		Loadgen: LoadgenConfig{
			Clients:     40,
			Store:       replay.Rewriting{Store: archive},
			URLs:        []string{mainURL},
			Sched:       sched.ConfigONLD,
			Shards:      4,
			CacheBytes:  8 << 20,
			FixedRandom: true,
			Stagger:     10 * time.Millisecond,
		},
		// The flap guarantees the first crawl's fetches fail (retries carry
		// them past the window); the error rate keeps later fetches risky.
		Faults: replay.OriginFaults{
			ErrorRate: 0.1,
			Seed:      7,
			Flaps:     []replay.FlapWindow{{Start: 0, End: 80 * time.Millisecond}},
		},
		Resilience: resilience.Policy{
			MaxRetries:       3,
			BackoffBase:      20 * time.Millisecond,
			BackoffMax:       200 * time.Millisecond,
			FailureThreshold: 1 << 20, // errors are transient; keep the breaker quiet
		},
		// The drain fires while most of the staggered fleet is still mid-page.
		DrainAfter:   120 * time.Millisecond,
		DrainTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	if r.Completed != 40 {
		t.Fatalf("%d/40 sessions completed (%d failed) under chaos", r.Completed, r.Failed)
	}
	if res.Faults.Total() == 0 {
		t.Error("origin injected no faults: the chaos run was not chaotic")
	}
	if res.DrainedSessions == 0 {
		t.Error("no session was handed a drain notice")
	}
	if r.Drained == 0 {
		t.Error("no fleet sample tags the drain")
	}
	if res.Resilience.Retries == 0 {
		t.Error("resilient fetch path never retried through the injected errors")
	}
	// Joining another session's flight is a hit: only the first session of
	// each proxy incarnation pays origin fetches for the one shared page.
	if r.CacheHitRate <= 0.9 {
		t.Errorf("cache hit rate = %v across 40 sessions of one page, want > 0.9", r.CacheHitRate)
	}
	if len(r.PhaseP99) == 0 {
		t.Error("no per-phase percentiles: every session completed before the drain?")
	}
	if r.FallbackWriteErrors > 0 {
		t.Errorf("%d fallback writes silently failed", r.FallbackWriteErrors)
	}
}

// TestChaosLoadgenDrainOnly pins the restart handoff in isolation: no origin
// faults, just a drain and restart mid-run. Every session completes and at
// least one lives through the handoff (resume or DIR fallback).
func TestChaosLoadgenDrainOnly(t *testing.T) {
	defer leakcheck.Check(t)()
	archive, mainURL := testArchive()
	res, err := RunChaosLoadgen(ChaosConfig{
		Loadgen: LoadgenConfig{
			Clients:     20,
			Store:       replay.Rewriting{Store: archive},
			URLs:        []string{mainURL},
			Sched:       sched.ConfigONLD,
			CacheBytes:  8 << 20,
			FixedRandom: true,
			Stagger:     10 * time.Millisecond,
			QuietPeriod: 400 * time.Millisecond,
		},
		DrainAfter:   250 * time.Millisecond,
		DrainTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	if r.Completed != 20 {
		t.Fatalf("%d/20 sessions completed (%d failed) across the drain", r.Completed, r.Failed)
	}
	if res.DrainedSessions == 0 {
		t.Error("the drain notified nobody")
	}
	if res.Faults.Total() != 0 {
		t.Errorf("faults injected in a fault-free run: %+v", res.Faults)
	}
	if res.SessionsServed < 20 {
		t.Errorf("sessions served = %d, want >= 20 (resumes add more)", res.SessionsServed)
	}
}

package parcelnet

import (
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/leakcheck"
	"github.com/parcel-go/parcel/internal/netem"
	"github.com/parcel-go/parcel/internal/replay"
	"github.com/parcel-go/parcel/internal/sched"
)

// TestLoadgenSmoke is the CI-sized load run: a modest fleet over real TCP
// with netem shaping, asserting the report's core invariants — everyone
// completes, the shared cache actually shares, and egress is attributed.
func TestLoadgenSmoke(t *testing.T) {
	defer leakcheck.Check(t)()
	archive, mainURL := testArchive()
	res, err := RunLoadgen(LoadgenConfig{
		Clients:     25,
		Store:       replay.Rewriting{Store: archive},
		URLs:        []string{mainURL},
		Sched:       sched.ConfigONLD,
		Shards:      4,
		CacheBytes:  4 << 20,
		Netem:       &netem.Params{Latency: 5 * time.Millisecond, Bps: 4 << 20},
		FixedRandom: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	if r.Sessions != 25 || r.Completed != 25 {
		t.Fatalf("completion: %+v", r)
	}
	if r.CacheHitRate <= 0 {
		t.Errorf("cache hit rate = %v, want > 0", r.CacheHitRate)
	}
	if !(r.P50 > 0 && r.P50 <= r.P90 && r.P90 <= r.P99) {
		t.Errorf("percentiles unordered: p50=%v p90=%v p99=%v", r.P50, r.P90, r.P99)
	}
	if r.EgressPerSession < float64(archive.TotalBytes()) {
		t.Errorf("egress/session = %v, below page weight %d", r.EgressPerSession, archive.TotalBytes())
	}
	// Cross-session sharing: the fleet's origin bytes are one page copy.
	if r.OriginBytes != archive.TotalBytes() {
		t.Errorf("fleet origin bytes = %d, want %d", r.OriginBytes, archive.TotalBytes())
	}
	if res.SessionsServed != 25 {
		t.Errorf("sessions served = %d", res.SessionsServed)
	}
	if res.Cache.Hits+res.Cache.Shared == 0 {
		t.Errorf("cache never shared: %+v", res.Cache)
	}
	// The policy is always armed on this arm; a fault-free run must consume
	// none of its machinery.
	if r.Retries != 0 || r.StaleServes != 0 || r.BreakerOpens != 0 {
		t.Errorf("fault-free run consumed the resilience machinery: retries=%d stale=%d breaker opens=%d",
			r.Retries, r.StaleServes, r.BreakerOpens)
	}
}

// TestLoadgen500Tenants is the scale gate from the issue: ≥500 concurrent
// sessions through one proxy complete leak-free. Unshaped (the point is
// session-machinery scale, not link emulation) and skipped in -short runs.
func TestLoadgen500Tenants(t *testing.T) {
	if testing.Short() {
		t.Skip("500-tenant run skipped in -short mode")
	}
	defer leakcheck.Check(t)()
	archive, mainURL := testArchive()
	res, err := RunLoadgen(LoadgenConfig{
		Clients:    500,
		Store:      replay.Rewriting{Store: archive},
		URLs:       []string{mainURL},
		Sched:      sched.ConfigONLD,
		CacheBytes: 16 << 20,
		// The page's 120 ms script timer must fire inside the quiet window
		// for its origin fetch to be booked in some session's completion
		// note; on a loaded box (race detector, the rest of the suite) the
		// default 200 ms window loses that race a few times in twenty.
		QuietPeriod: time.Second,
		Timeout:     120 * time.Second,
		FixedRandom: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	if r.Completed != 500 {
		t.Fatalf("only %d/500 sessions completed (%d failed)", r.Completed, r.Failed)
	}
	if r.CacheHitRate <= 0.9 {
		t.Errorf("cache hit rate = %v over 500 sessions of one page, want > 0.9", r.CacheHitRate)
	}
	if r.OriginBytes != archive.TotalBytes() {
		t.Errorf("fleet origin bytes = %d, want one page copy %d", r.OriginBytes, archive.TotalBytes())
	}
}

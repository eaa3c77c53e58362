package dnssim

import (
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/eventsim"
	"github.com/parcel-go/parcel/internal/simnet"
)

func setup(t *testing.T, serverDelay time.Duration) (*eventsim.Simulator, *Resolver) {
	t.Helper()
	sim := eventsim.New(1)
	n := simnet.New(sim)
	client := n.AddHost("client", simnet.HostConfig{})
	dns := n.AddHost("dns", simnet.HostConfig{})
	n.SetPath(client, dns, simnet.PathParams{RTT: 70 * time.Millisecond})
	NewServer(sim, dns, serverDelay)
	return sim, NewResolver(client, dns)
}

func TestResolveTakesOneRTT(t *testing.T) {
	sim, r := setup(t, 0)
	var done time.Duration
	resolved := false
	r.Resolve("example.com", Func(func(at time.Duration) {
		done = sim.Now()
		resolved = true
	}))
	sim.Run()
	if !resolved {
		t.Fatal("never resolved")
	}
	if done < 70*time.Millisecond || done > 75*time.Millisecond {
		t.Fatalf("resolved at %v, want ≈ 70ms", done)
	}
	if r.Lookups != 1 {
		t.Fatalf("Lookups = %d, want 1", r.Lookups)
	}
}

func TestServerDelayAdds(t *testing.T) {
	sim, r := setup(t, 30*time.Millisecond)
	var done time.Duration
	r.Resolve("example.com", Func(func(time.Duration) { done = sim.Now() }))
	sim.Run()
	if done < 100*time.Millisecond || done > 106*time.Millisecond {
		t.Fatalf("resolved at %v, want ≈ 100ms", done)
	}
}

func TestCacheHit(t *testing.T) {
	sim, r := setup(t, 0)
	r.Resolve("example.com", Func(func(time.Duration) {}))
	sim.Run()
	var hitAt time.Duration = -1
	r.Resolve("example.com", Func(func(time.Duration) { hitAt = sim.Now() }))
	if hitAt != sim.Now() {
		t.Fatalf("cache hit not synchronous: %v", hitAt)
	}
	if r.Hits != 1 {
		t.Fatalf("Hits = %d, want 1", r.Hits)
	}
}

func TestConcurrentLookupsCoalesce(t *testing.T) {
	sim, r := setup(t, 0)
	var done int
	for i := 0; i < 5; i++ {
		r.Resolve("shared.com", Func(func(time.Duration) { done++ }))
	}
	sim.Run()
	if done != 5 {
		t.Fatalf("callbacks = %d, want 5", done)
	}
	if r.Lookups != 1 {
		t.Fatalf("Lookups = %d, want 1 (coalesced)", r.Lookups)
	}
}

func TestDistinctNamesSeparateLookups(t *testing.T) {
	sim, r := setup(t, 0)
	r.Resolve("a.com", Func(func(time.Duration) {}))
	r.Resolve("b.com", Func(func(time.Duration) {}))
	sim.Run()
	if r.Lookups != 2 {
		t.Fatalf("Lookups = %d, want 2", r.Lookups)
	}
}

func TestFlushCache(t *testing.T) {
	sim, r := setup(t, 0)
	r.Resolve("a.com", Func(func(time.Duration) {}))
	sim.Run()
	r.FlushCache()
	r.Resolve("a.com", Func(func(time.Duration) {}))
	sim.Run()
	if r.Lookups != 1 {
		// Lookups was reset by FlushCache, so the second resolve counts 1.
		t.Fatalf("Lookups after flush = %d, want 1", r.Lookups)
	}
	if r.Hits != 0 {
		t.Fatalf("Hits after flush = %d, want 0", r.Hits)
	}
}

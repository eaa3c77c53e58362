package resilience

import (
	"math/rand"
	"testing"
	"time"
)

func TestPolicyDefaults(t *testing.T) {
	p := Policy{}.WithDefaults()
	if p.Timeout != 10*time.Second || p.MaxRetries != 2 || p.BackoffBase != 50*time.Millisecond ||
		p.BackoffMax != 2*time.Second || p.FailureThreshold != 4 || p.OpenFor != 3*time.Second ||
		p.NegTTL != time.Second {
		t.Fatalf("unexpected defaults: %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("defaults must validate: %v", err)
	}
	// Negative MaxRetries means "no retries", normalized to zero.
	if got := (Policy{MaxRetries: -1}.WithDefaults()).MaxRetries; got != 0 {
		t.Fatalf("MaxRetries -1 -> %d, want 0", got)
	}
}

func TestPolicyValidate(t *testing.T) {
	bad := []Policy{
		{Timeout: -1},
		{BackoffBase: -1},
		{BackoffMax: -1},
		{OpenFor: -1},
		{NegTTL: -1},
		{FailureThreshold: -2},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("policy %+v validated", p)
		}
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	p := Policy{}.WithDefaults()
	rng := rand.New(rand.NewSource(1))
	for attempt := 0; attempt <= 8; attempt++ {
		exp := p.BackoffBase << uint(maxInt(attempt, 1)-1)
		if exp > p.BackoffMax || exp <= 0 {
			exp = p.BackoffMax
		}
		for i := 0; i < 100; i++ {
			d := p.Backoff(attempt, rng)
			if d < exp/2 || d > exp {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, exp/2, exp)
			}
		}
	}
}

func TestBackoffDeterministic(t *testing.T) {
	p := Policy{}.WithDefaults()
	a := rand.New(rand.NewSource(42))
	b := rand.New(rand.NewSource(42))
	for attempt := 1; attempt <= 5; attempt++ {
		if da, db := p.Backoff(attempt, a), p.Backoff(attempt, b); da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", attempt, da, db)
		}
	}
}

func TestBreakerOpensAtThreshold(t *testing.T) {
	b := NewBreaker(Policy{FailureThreshold: 3})
	now := time.Second
	for i := 0; i < 2; i++ {
		b.Failure(now)
		if !b.Allow(now) {
			t.Fatalf("closed breaker rejected after %d failures", i+1)
		}
	}
	b.Failure(now)
	if b.State(now) != Open {
		t.Fatalf("state after threshold = %v, want open", b.State(now))
	}
	if b.Allow(now) {
		t.Fatal("open breaker admitted a request")
	}
	if b.Opens() != 1 || b.FastFails() != 1 {
		t.Fatalf("opens=%d fastFails=%d, want 1/1", b.Opens(), b.FastFails())
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b := NewBreaker(Policy{FailureThreshold: 2})
	now := time.Second
	b.Failure(now)
	b.Success(now)
	b.Failure(now)
	if b.State(now) != Closed {
		t.Fatalf("streak not reset by success: state %v", b.State(now))
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	p := Policy{FailureThreshold: 1, OpenFor: time.Second}
	b := NewBreaker(p)
	b.Failure(0)
	if b.Allow(500 * time.Millisecond) {
		t.Fatal("admitted during cool-down")
	}
	// Cool-down elapsed: exactly one probe admitted.
	if !b.Allow(time.Second) {
		t.Fatal("probe rejected after cool-down")
	}
	if b.State(time.Second) != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.State(time.Second))
	}
	if b.Allow(time.Second) {
		t.Fatal("second concurrent probe admitted")
	}
	// Probe success closes.
	b.Success(time.Second + time.Millisecond)
	if b.State(time.Second+time.Millisecond) != Closed {
		t.Fatal("probe success did not close breaker")
	}
	if !b.Allow(time.Second + time.Millisecond) {
		t.Fatal("closed breaker rejected")
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	p := Policy{FailureThreshold: 1, OpenFor: time.Second}
	b := NewBreaker(p)
	b.Failure(0)
	if !b.Allow(time.Second) {
		t.Fatal("probe rejected")
	}
	b.Failure(time.Second)
	if b.State(time.Second) != Open {
		t.Fatalf("probe failure left state %v, want open", b.State(time.Second))
	}
	if b.Opens() != 2 {
		t.Fatalf("opens = %d, want 2", b.Opens())
	}
	// The new cool-down starts at the probe failure.
	if b.Allow(time.Second + 500*time.Millisecond) {
		t.Fatal("admitted during second cool-down")
	}
	if !b.Allow(2 * time.Second) {
		t.Fatal("second probe rejected after second cool-down")
	}
}

func TestBreakerStragglingFailureWhileOpen(t *testing.T) {
	b := NewBreaker(Policy{FailureThreshold: 1, OpenFor: time.Second})
	b.Failure(0)
	b.Failure(100 * time.Millisecond) // straggler from a request issued pre-open
	if b.Opens() != 1 {
		t.Fatalf("straggling failure re-opened: opens = %d", b.Opens())
	}
	// Cool-down still anchored at the first open.
	if !b.Allow(time.Second) {
		t.Fatal("probe rejected at original cool-down expiry")
	}
}

func TestBreakerStateResolvesElapsedCooldown(t *testing.T) {
	b := NewBreaker(Policy{FailureThreshold: 1, OpenFor: time.Second})
	b.Failure(0)
	if b.State(2*time.Second) != HalfOpen {
		t.Fatal("State did not resolve elapsed cool-down to half-open")
	}
	// State must not consume the probe slot.
	if !b.Allow(2 * time.Second) {
		t.Fatal("State consumed the probe")
	}
}

func TestGroupPerOriginIsolation(t *testing.T) {
	g := NewGroup(Policy{FailureThreshold: 1, OpenFor: time.Second})
	g.For("sick.example").Failure(0)
	if g.For("sick.example").Allow(0) {
		t.Fatal("sick origin admitted")
	}
	if !g.For("healthy.example").Allow(0) {
		t.Fatal("healthy origin rejected by sick origin's breaker")
	}
	if g.For("sick.example") != g.For("sick.example") {
		t.Fatal("For not stable per origin")
	}
	if g.Opens() != 1 || g.FastFails() != 1 {
		t.Fatalf("group opens=%d fastFails=%d, want 1/1", g.Opens(), g.FastFails())
	}
	if g.Policy().FailureThreshold != 1 {
		t.Fatalf("group policy lost overrides: %+v", g.Policy())
	}
}

func TestGroupConcurrentAccess(t *testing.T) {
	g := NewGroup(Policy{})
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			origins := [...]string{"a", "b", "c"}
			for j := 0; j < 200; j++ {
				b := g.For(origins[(i+j)%len(origins)])
				now := time.Duration(j) * time.Millisecond
				if b.Allow(now) {
					if j%3 == 0 {
						b.Failure(now)
					} else {
						b.Success(now)
					}
				}
			}
		}(i)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}

func TestStateString(t *testing.T) {
	if Closed.String() != "closed" || Open.String() != "open" || HalfOpen.String() != "half-open" {
		t.Fatal("State strings wrong")
	}
	if State(9).String() != "State(9)" {
		t.Fatalf("unknown state string: %s", State(9))
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

package resilience

import (
	"math/rand"
	"time"
)

// Action is what an Attempt tells its driver to do next.
type Action int

const (
	// Issue: send the request now; if no response arrives within Step.After,
	// report TimedOut and ignore the straggler.
	Issue Action = iota
	// Wait: arm a timer for Step.After (the jittered backoff), then call Start
	// again.
	Wait
	// Done: the origin answered; the reported response is the fetch's result.
	Done
	// Failed: the last attempt failed and the retry budget is spent.
	Failed
	// Refused: the origin's breaker is open; the origin was not contacted.
	Refused
)

// Step is one instruction from an Attempt to its driver.
type Step struct {
	Action Action
	// After is the attempt's deadline for Issue and the backoff for Wait.
	After time.Duration
}

// Attempt steps one origin fetch through the policy: deadlines, the retry
// budget with jittered backoff, and the origin's breaker. It is the only place
// that decides what counts as a failed attempt, whether another may follow and
// what the breaker learns. The driver owns the clock, the timers and the RNG:
// it reports what happened and does what the returned Step says — a blocking
// loop on the real-TCP arm, scheduled events on the simulation arm.
type Attempt struct {
	g      *Group
	origin string
	issued int
}

// Attempt returns the stepper for one fetch from origin.
func (g *Group) Attempt(origin string) Attempt {
	return Attempt{g: g, origin: origin}
}

// known returns origin's breaker if it has one. Breakers are created by an
// origin's first failed attempt — until then there is nothing to remember, and
// a fault-free run allocates none.
func (g *Group) known(origin string) *Breaker {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.m[origin]
}

// Issued is how many attempts Start has admitted so far; every one past the
// first is a retry.
func (a *Attempt) Issued() int { return a.issued }

// Start asks to send an attempt — the first, or the next once a Wait has
// elapsed. The breaker may have opened in between (this fetch's own failures,
// or other sessions failing on the same origin), in which case the fetch ends
// Refused without dialing.
func (a *Attempt) Start(now time.Duration) Step {
	if br := a.g.known(a.origin); br != nil && !br.Allow(now) {
		return Step{Action: Refused}
	}
	a.issued++
	return Step{Action: Issue, After: a.g.policy.Timeout}
}

// Responded reports the issued attempt's answer. Any status below 500 — 404s
// included, the origin answered — is success; a transport error or a 5xx is a
// failed attempt. rng is drawn only for the backoff after a failure.
func (a *Attempt) Responded(now time.Duration, status int, err error, rng *rand.Rand) Step {
	if err != nil || status >= 500 {
		return a.failed(now, rng)
	}
	if br := a.g.known(a.origin); br != nil {
		br.Success(now)
	}
	return Step{Action: Done}
}

// TimedOut reports that the issued attempt's deadline passed first.
func (a *Attempt) TimedOut(now time.Duration, rng *rand.Rand) Step {
	return a.failed(now, rng)
}

func (a *Attempt) failed(now time.Duration, rng *rand.Rand) Step {
	a.g.For(a.origin).Failure(now)
	pol := a.g.policy
	if a.issued > pol.MaxRetries {
		return Step{Action: Failed}
	}
	return Step{Action: Wait, After: pol.Backoff(a.issued, rng)}
}

package httpsim

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"time"
)

// OriginFaults configures server-side fault injection: origin errors, stalled
// responses, truncated bodies, and timed availability flaps. The zero value
// injects nothing, and an inactive config consumes no RNG draws and schedules
// no events — the same discipline as simnet's link faults, so golden figures
// stay bit-identical with faults off.
type OriginFaults struct {
	// ErrorRate is the probability a request is answered 503 outright.
	ErrorRate float64
	// StallRate is the probability the response is delayed by StallFor on top
	// of the server's think time (a slow origin, not a dead one).
	StallRate float64
	// PartialRate is the probability the response body is truncated mid-way
	// and the transfer reported failed (status 502 with a half body).
	PartialRate float64
	// StallFor is the extra delay a stalled response waits (default 2 s).
	StallFor time.Duration
	// Flaps are windows of virtual time during which the origin answers every
	// request 503 — a timed outage, checked before any probability draw.
	Flaps []FlapWindow
}

// FlapWindow is a half-open [Start, End) window of origin unavailability.
type FlapWindow struct {
	Start time.Duration
	End   time.Duration
}

// Active reports whether any fault injection is configured.
func (f OriginFaults) Active() bool {
	return f.ErrorRate > 0 || f.StallRate > 0 || f.PartialRate > 0 || len(f.Flaps) > 0
}

// Validate rejects rates outside [0,1] (individually and summed — the three
// faults are drawn from one uniform sample) and inverted flap windows.
func (f OriginFaults) Validate() error {
	for name, r := range map[string]float64{
		"ErrorRate": f.ErrorRate, "StallRate": f.StallRate, "PartialRate": f.PartialRate,
	} {
		if r < 0 || r > 1 {
			return fmt.Errorf("httpsim: %s %v outside [0,1]", name, r)
		}
	}
	if sum := f.ErrorRate + f.StallRate + f.PartialRate; sum > 1 {
		return fmt.Errorf("httpsim: fault rates sum to %v > 1", sum)
	}
	if f.StallFor < 0 {
		return fmt.Errorf("httpsim: negative StallFor %v", f.StallFor)
	}
	for _, w := range f.Flaps {
		if w.End <= w.Start || w.Start < 0 {
			return fmt.Errorf("httpsim: bad flap window [%v, %v)", w.Start, w.End)
		}
	}
	return nil
}

// flapping reports whether now falls inside a flap window.
func (f OriginFaults) flapping(now time.Duration) bool {
	for _, w := range f.Flaps {
		if now >= w.Start && now < w.End {
			return true
		}
	}
	return false
}

// OriginFaultStats counts faults the server injected.
type OriginFaultStats struct {
	Errors     int // 503s from ErrorRate
	Stalls     int // responses delayed by StallFor
	Partials   int // truncated bodies
	FlapErrors int // 503s inside flap windows
}

// Total sums every injected fault.
func (s OriginFaultStats) Total() int {
	return s.Errors + s.Stalls + s.Partials + s.FlapErrors
}

// SetFaults arms fault injection on the server. Call before traffic; pass the
// zero value to disarm.
func (s *Server) SetFaults(f OriginFaults) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if f.StallFor == 0 {
		f.StallFor = 2 * time.Second
	}
	s.faults = f
	return nil
}

// FaultStats returns the faults injected so far.
func (s *Server) FaultStats() OriginFaultStats { return s.stats }

// faultDecision is what the server decided to do to one request.
type faultDecision int

const (
	faultNone faultDecision = iota
	faultError
	faultStall
	faultPartial
	faultFlap
)

// decideFault rolls the server's fault dice for one request. Inactive
// configs return faultNone without touching the RNG; flap windows are
// checked first and consume no draw either. The single uniform draw is cut
// by cumulative rate thresholds so relative fault mix is exactly as
// configured.
func (s *Server) decideFault() faultDecision {
	if !s.faults.Active() {
		return faultNone
	}
	if s.faults.flapping(s.sched.Now()) {
		s.stats.FlapErrors++
		return faultFlap
	}
	u := s.sched.Rand().Float64()
	switch {
	case u < s.faults.ErrorRate:
		s.stats.Errors++
		return faultError
	case u < s.faults.ErrorRate+s.faults.StallRate:
		s.stats.Stalls++
		return faultStall
	case u < s.faults.ErrorRate+s.faults.StallRate+s.faults.PartialRate:
		s.stats.Partials++
		return faultPartial
	}
	return faultNone
}

// validatorHashes counts ContentValidator calls (see ValidatorHashes).
var validatorHashes atomic.Uint64

// ValidatorHashes returns how many bodies ContentValidator has hashed since
// the process started: the probe behind "a run that caches nothing hashes
// nothing" and "a pinned store hashes each body once".
func ValidatorHashes() uint64 { return validatorHashes.Load() }

// ContentValidator is the canonical content-hash validator both arms use as
// the cache ETag: FNV-64a over the body, hex-encoded. Same bytes, same
// validator — which is exactly the objcache generation contract.
func ContentValidator(body []byte) string {
	validatorHashes.Add(1)
	h := fnv.New64a()
	h.Write(body)
	return fmt.Sprintf("%016x", h.Sum64())
}

package httpsim

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync/atomic"
	"time"
)

// OriginFaults is the one origin fault plan, for the simulated Server and the
// TCP origin (parcelnet.Origin) alike: origin errors, stalled responses,
// truncated bodies, and timed availability flaps. The zero value injects
// nothing, and an inactive plan consumes no RNG draws and schedules no events
// — the same discipline as simnet's link faults, so golden figures stay
// bit-identical with faults off.
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
	// Flaps are windows of time since the origin started during which it
	// answers every request 503 — a timed outage, checked before any
	// probability draw.
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
// faults are drawn from one uniform sample) and inverted flap windows. Rates
// are checked in declaration order, so the first bad one is the one named.
func (f OriginFaults) Validate() error {
	names := [...]string{"ErrorRate", "StallRate", "PartialRate"}
	for i, r := range [...]float64{f.ErrorRate, f.StallRate, f.PartialRate} {
		if r < 0 || r > 1 {
			return fmt.Errorf("httpsim: %s %v outside [0,1]", names[i], r)
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

// Armed validates f and returns it ready to drive Decide, with StallFor
// defaulted to 2 s. Both origins' SetFaults go through it.
func (f OriginFaults) Armed() (OriginFaults, error) {
	if err := f.Validate(); err != nil {
		return OriginFaults{}, err
	}
	if f.StallFor == 0 {
		f.StallFor = 2 * time.Second
	}
	return f, nil
}

// OriginFaultStats counts faults an origin injected.
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

// Fault is what an origin does to one request.
type Fault int

const (
	// FaultNone serves the request normally.
	FaultNone Fault = iota
	// FaultError answers 503 without the body (ErrorRate, or a flap).
	FaultError
	// FaultStall serves the response after StallFor.
	FaultStall
	// FaultPartial serves half the body and reports the transfer failed.
	FaultPartial
)

// Decide rolls the fault plan for one request, counting what it injects in
// st. It reads no clock and owns no RNG: now is the driver's time since its
// origin started (virtual on the simulated server, wall-clock on the TCP
// origin) and rng is the driver's seeded source. An inactive plan and a
// request inside a flap window consume no draw, so a fault-free run stays
// byte-identical to one without a plan. Otherwise one uniform draw is cut
// by cumulative rate thresholds, so the fault mix is exactly as configured.
func (f OriginFaults) Decide(now time.Duration, rng *rand.Rand, st *OriginFaultStats) Fault {
	if !f.Active() {
		return FaultNone
	}
	for _, w := range f.Flaps {
		if now >= w.Start && now < w.End {
			st.FlapErrors++
			return FaultError
		}
	}
	u := rng.Float64()
	switch {
	case u < f.ErrorRate:
		st.Errors++
		return FaultError
	case u < f.ErrorRate+f.StallRate:
		st.Stalls++
		return FaultStall
	case u < f.ErrorRate+f.StallRate+f.PartialRate:
		st.Partials++
		return FaultPartial
	}
	return FaultNone
}

// SetFaults arms fault injection on the server. Call before traffic; pass the
// zero value to disarm.
func (s *Server) SetFaults(f OriginFaults) error {
	f, err := f.Armed()
	if err != nil {
		return err
	}
	s.faults = f
	return nil
}

// FaultStats returns the faults injected so far.
func (s *Server) FaultStats() OriginFaultStats { return s.stats }

// validatorHashes counts ContentValidator calls (see ValidatorHashes).
var validatorHashes atomic.Uint64

// ValidatorHashes returns how many bodies ContentValidator has hashed since
// the process started: the probe behind "a run that caches nothing hashes
// nothing" and "a pinned store hashes each body once".
func ValidatorHashes() uint64 { return validatorHashes.Load() }

// ContentValidator is the canonical content-hash validator both arms use as
// the cache ETag: the body's CRC-32C followed by its CRC-32 (IEEE), as 16
// lowercase hex digits. Same bytes, same validator — which is exactly the
// objcache generation contract. Both checksums run on the CPU's CRC and
// carry-less-multiply instructions where it has them, so hashing a page set
// costs little next to generating it.
func ContentValidator(body []byte) string {
	validatorHashes.Add(1)
	v := uint64(crc32.Checksum(body, castagnoli))<<32 | uint64(crc32.ChecksumIEEE(body))
	var hex [16]byte
	for i := len(hex) - 1; i >= 0; i-- {
		hex[i] = "0123456789abcdef"[v&0xf]
		v >>= 4
	}
	return string(hex[:])
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

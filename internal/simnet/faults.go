package simnet

// Fault injection: deterministic, seed-derived packet loss and link outages
// layered under the reliable stream model.
//
// The injection point is transmit: every transmission attempt first waits out
// any configured outage window (the link is simply down — packets serialize
// behind the window's end), then draws a loss decision from the simulation's
// seeded random source. A lost attempt still consumes the sender's uplink
// (and is recorded in the sender's trace, so retransmissions cost energy),
// but never reaches the receiver; instead the same pooled packet is
// re-transmitted after an exponentially backed-off RTO. Delivery therefore
// stays exactly-once and in causal order per message, which preserves the
// simulator's reliable-stream contract — loss shows up as latency, energy,
// and the FaultStats counters, exactly the phenomena the loss sweep measures.
//
// All knobs default to zero, in which case transmit takes the historical
// code path and consumes no random draws: golden figures stay bit-identical.

import (
	"fmt"
	"math/rand"
	"time"
)

// Outage is a timed window during which a link transmits nothing.
type Outage struct {
	Start, End time.Duration
}

// FaultParams configures loss and outage injection for one link direction.
// The zero value disables injection entirely.
type FaultParams struct {
	// LossRate is the i.i.d. per-packet loss probability (good state).
	LossRate float64

	// Gilbert–Elliott burst loss: a two-state chain advanced per packet.
	// PGoodBad/PBadGood are the per-packet transition probabilities and
	// LossRateBad the loss probability while in the bad state (LossRate
	// applies in the good state). All three zero disables the chain.
	PGoodBad    float64
	PBadGood    float64
	LossRateBad float64

	// Outages are windows (in virtual time) during which the link is down.
	Outages []Outage

	// RTO is the base retransmission timeout; it doubles per attempt of the
	// same packet, capped at 8×. Zero means the 200 ms default.
	RTO time.Duration

	// MaxAttempts bounds transmissions of one packet: after MaxAttempts
	// losses the packet is delivered anyway (counted as a forced delivery),
	// so a simulation always terminates even at LossRate 1. Zero means 12.
	MaxAttempts int
}

const (
	defaultRTO         = 200 * time.Millisecond
	defaultMaxAttempts = 12
	maxRTOBackoffShift = 3 // RTO backoff caps at RTO<<3 (8×)
)

// Active reports whether any fault knob is set.
func (f FaultParams) Active() bool {
	return f.LossRate > 0 || f.PGoodBad > 0 || f.PBadGood > 0 || f.LossRateBad > 0 || len(f.Outages) > 0
}

// Validate rejects nonsensical configurations.
func (f FaultParams) Validate() error {
	for _, p := range []float64{f.LossRate, f.PGoodBad, f.PBadGood, f.LossRateBad} {
		if p < 0 || p > 1 {
			return fmt.Errorf("simnet: fault probability %v outside [0,1]", p)
		}
	}
	for _, o := range f.Outages {
		if o.End <= o.Start || o.Start < 0 {
			return fmt.Errorf("simnet: outage window [%v,%v) is empty or negative", o.Start, o.End)
		}
	}
	if f.RTO < 0 {
		return fmt.Errorf("simnet: negative RTO %v", f.RTO)
	}
	if f.MaxAttempts < 0 {
		return fmt.Errorf("simnet: negative MaxAttempts %d", f.MaxAttempts)
	}
	return nil
}

func (f FaultParams) rto() time.Duration {
	if f.RTO > 0 {
		return f.RTO
	}
	return defaultRTO
}

func (f FaultParams) maxAttempts() int {
	if f.MaxAttempts > 0 {
		return f.MaxAttempts
	}
	return defaultMaxAttempts
}

// outageEnd returns the end of the outage window containing t, if any.
func (f FaultParams) outageEnd(t time.Duration) (time.Duration, bool) {
	for _, o := range f.Outages {
		if t >= o.Start && t < o.End {
			return o.End, true
		}
	}
	return 0, false
}

// linkFaults is the mutable per-direction fault state: the configured
// parameters plus the Gilbert–Elliott chain position.
type linkFaults struct {
	p   FaultParams
	bad bool
}

// drop advances the GE chain (when configured) and draws the loss decision.
// Pure-outage configurations consume no random draws.
func (lf *linkFaults) drop(rng *rand.Rand) bool {
	p := &lf.p
	if p.PGoodBad > 0 || p.PBadGood > 0 {
		if lf.bad {
			if rng.Float64() < p.PBadGood {
				lf.bad = false
			}
		} else if rng.Float64() < p.PGoodBad {
			lf.bad = true
		}
	}
	rate := p.LossRate
	if lf.bad {
		rate = p.LossRateBad
	}
	if rate <= 0 {
		return false
	}
	return rng.Float64() < rate
}

// FaultStats aggregates injection outcomes across a Network.
type FaultStats struct {
	// Dropped counts transmission attempts the fault model discarded.
	Dropped int
	// Retransmits counts re-transmissions scheduled for dropped packets.
	Retransmits int
	// RetransmitBytes totals the wire bytes those re-transmissions resent.
	RetransmitBytes int64
	// ForcedDeliveries counts packets delivered despite a loss draw because
	// they hit the MaxAttempts cap.
	ForcedDeliveries int
	// OutageDeferrals counts departures pushed past an outage window.
	OutageDeferrals int
}

// SetFaults configures fault injection on the (already wired) path between a
// and b. Each direction gets independent Gilbert–Elliott state, so a burst on
// the downlink does not imply one on the uplink.
func (n *Network) SetFaults(a, b *Host, f FaultParams) {
	if err := f.Validate(); err != nil {
		panic(err)
	}
	setPeerFaults(a, b, f)
	setPeerFaults(b, a, f)
}

func setPeerFaults(h, to *Host, f FaultParams) {
	if to.id >= len(h.peers) || h.peers[to.id].to != to {
		panic(fmt.Sprintf("simnet: SetFaults before SetPath between %q and %q", h.Name, to.Name))
	}
	pp := &h.peers[to.id]
	pp.faults = nil
	if f.Active() {
		pp.faults = &linkFaults{p: f}
	}
}

// FaultStats returns the injection counters accumulated so far.
func (n *Network) FaultStats() FaultStats { return n.faultStats }

// pktRetransmit re-enters transmit for a packet whose previous attempt was
// lost; it runs as a scheduled event one RTO after the loss.
func pktRetransmit(v any) {
	p := v.(*packet)
	p.net.transmit(p.from, p.to, p)
}

// Package sched implements PARCEL's cellular-friendly data-transfer
// scheduling (§4.4): the policies deciding when the proxy flushes collected
// objects to the client — IND (push each object as it arrives), PARCEL(X)
// (push when X bytes accumulate or onload fires at the proxy), and ONLD (one
// batch at proxy onload) — plus the §6 analytical model of the
// latency/energy trade-off and the optimal bundle size.
package sched

import (
	"fmt"
	"math"
	"time"

	"github.com/parcel-go/parcel/internal/radio"
)

// Policy selects a transfer schedule.
type Policy int

const (
	// IND transfers each object as soon as the proxy has it (Figure 5b).
	IND Policy = iota
	// Threshold is PARCEL(X): flush when X bytes are pending or at the
	// proxy onload event (Figure 5d).
	Threshold
	// ONLD holds everything until the proxy onload event (Figure 5c).
	ONLD
)

// Config is a fully specified schedule.
type Config struct {
	Policy         Policy
	ThresholdBytes int // used by Threshold
}

// Common configurations from the paper's evaluation (§8.3).
var (
	ConfigIND  = Config{Policy: IND}
	Config512K = Config{Policy: Threshold, ThresholdBytes: 512 << 10}
	Config1M   = Config{Policy: Threshold, ThresholdBytes: 1 << 20}
	Config2M   = Config{Policy: Threshold, ThresholdBytes: 2 << 20}
	ConfigONLD = Config{Policy: ONLD}
)

func (c Config) String() string {
	switch c.Policy {
	case IND:
		return "PARCEL(IND)"
	case ONLD:
		return "PARCEL(ONLD)"
	case Threshold:
		switch {
		case c.ThresholdBytes >= 1<<20 && c.ThresholdBytes%(1<<20) == 0:
			return fmt.Sprintf("PARCEL(%dM)", c.ThresholdBytes>>20)
		default:
			return fmt.Sprintf("PARCEL(%dK)", c.ThresholdBytes>>10)
		}
	default:
		return fmt.Sprintf("PARCEL(policy=%d)", int(c.Policy))
	}
}

// Validate rejects nonsensical configurations.
func (c Config) Validate() error {
	if c.Policy == Threshold && c.ThresholdBytes <= 0 {
		return fmt.Errorf("sched: Threshold policy requires positive ThresholdBytes")
	}
	if c.Policy != IND && c.Policy != Threshold && c.Policy != ONLD {
		return fmt.Errorf("sched: unknown policy %d", int(c.Policy))
	}
	return nil
}

// Item is one proxy-collected object awaiting transfer.
type Item struct {
	URL         string
	ContentType string
	Status      int
	Body        []byte
	ArrivedAt   time.Duration
	// Offset is the body prefix the client already holds (a resume offset),
	// set by admission on the items it streams: only Body[Offset:] is sent.
	Offset int64
}

// FlushReason explains why a bundle was emitted.
type FlushReason int

const (
	// FlushObject is IND's per-object push.
	FlushObject FlushReason = iota
	// FlushThreshold fired because pending bytes reached X.
	FlushThreshold
	// FlushOnload fired at the proxy onload event.
	FlushOnload
	// FlushComplete fired at page completion (remainder drain).
	FlushComplete
	// FlushDrained re-admits parked objects as the session's queue drains.
	FlushDrained
	// FlushRequested answers a client's missing-object request (§4.5).
	FlushRequested
)

func (r FlushReason) String() string {
	switch r {
	case FlushObject:
		return "object"
	case FlushThreshold:
		return "threshold"
	case FlushOnload:
		return "onload"
	case FlushComplete:
		return "complete"
	case FlushDrained:
		return "drained"
	case FlushRequested:
		return "requested"
	default:
		return "?"
	}
}

// Bundler accumulates items and emits bundles per the configured policy.
// A Session drives it: Add per collected object, OnLoad at the proxy's
// onload event, Complete when the page is declared done.
type Bundler struct {
	cfg   Config
	flush func(items []Item, reason FlushReason)

	pending      []Item
	pendingBytes int
	onloadSeen   bool
}

// NewBundler constructs a bundler; flush receives each emitted bundle.
func NewBundler(cfg Config, flush func(items []Item, reason FlushReason)) *Bundler {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if flush == nil {
		panic("sched: nil flush")
	}
	return &Bundler{cfg: cfg, flush: flush}
}

// Add offers one collected object to the schedule. Bundling applies to the
// initial page load: once the proxy onload event has passed (Figures 5c/5d
// schedule bundles up to the onload event), post-onload stragglers — async
// ad loads and the like — are pushed as they arrive so the page tail is not
// held back by a threshold that may never fill.
func (b *Bundler) Add(it Item) {
	if b.onloadSeen {
		b.flush([]Item{it}, FlushObject)
		return
	}
	switch b.cfg.Policy {
	case IND:
		b.flush([]Item{it}, FlushObject)
	case Threshold:
		b.pending = append(b.pending, it)
		b.pendingBytes += len(it.Body)
		if b.pendingBytes >= b.cfg.ThresholdBytes {
			b.drain(FlushThreshold)
		}
	case ONLD:
		b.pending = append(b.pending, it)
		b.pendingBytes += len(it.Body)
	}
}

// OnLoad signals the proxy onload event: PARCEL(X) and ONLD flush whatever
// is pending (Figure 5c/5d).
func (b *Bundler) OnLoad() {
	b.onloadSeen = true
	if b.cfg.Policy == Threshold || b.cfg.Policy == ONLD {
		b.drain(FlushOnload)
	}
}

// Complete signals page completion: any remainder is drained.
func (b *Bundler) Complete() {
	b.drain(FlushComplete)
}

// PendingBytes reports bytes currently held back.
func (b *Bundler) PendingBytes() int { return b.pendingBytes }

func (b *Bundler) drain(reason FlushReason) {
	if len(b.pending) == 0 {
		return
	}
	items := b.pending
	b.pending = nil
	b.pendingBytes = 0
	b.flush(items, reason)
}

// --- §6 analytical model ---------------------------------------------------

// Model captures the paper's §6 parameters: a page of B aggregate bytes at
// proxy onload, download speed s between proxy and client, proxy onload time
// Tp, and the radio parameters.
type Model struct {
	Radio       radio.Params
	SpeedBps    float64       // s, bytes per second proxy→client
	PageBytes   float64       // B, aggregate object size at proxy onload
	ProxyOnload time.Duration // Tp
}

// OptimalBundleSize returns b* = α·sqrt(s·B) (Eq. 1).
func (m Model) OptimalBundleSize() float64 {
	return m.Radio.Alpha() * math.Sqrt(m.SpeedBps*m.PageBytes)
}

// OptimalBundleCount returns n* = B / b*.
func (m Model) OptimalBundleCount() float64 {
	b := m.OptimalBundleSize()
	if b == 0 {
		return math.Inf(1)
	}
	return m.PageBytes / b
}

// RadioEnergy evaluates E(n), the §6 closed form for radio energy at client
// onload with n equal bundles, in joules. It returns +Inf when n implies a
// negative Long-DRX residence (the model's validity bound).
func (m Model) RadioEnergy(n float64) float64 {
	if n < 1 {
		return math.Inf(1)
	}
	p := m.Radio
	dc := p.CRTail.Seconds()
	ds := p.ShortDRXTail.Seconds()
	pc := p.PowerCR / 1000 // W
	ps := p.PowerShortDRX / 1000
	pl := p.PowerLongDRX / 1000
	txTime := m.PageBytes / m.SpeedBps
	dl := m.ProxyOnload.Seconds() - (n-1)/n*txTime - (n-1)*(dc+ds)
	if dl < 0 {
		return math.Inf(1)
	}
	return pl*dl + (n-1)*(pc*dc+ps*ds) + pc*txTime
}

// OLT evaluates OLT(n) = Tp + (1/n)·B/s (§6): the client onload time with n
// bundles.
func (m Model) OLT(n float64) time.Duration {
	if n < 1 {
		n = 1
	}
	tx := m.PageBytes / m.SpeedBps / n
	return m.ProxyOnload + time.Duration(tx*float64(time.Second))
}

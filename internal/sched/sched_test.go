package sched

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/radio"
)

type flushRec struct {
	items  []Item
	reason FlushReason
}

func record(recs *[]flushRec) func([]Item, FlushReason) {
	return func(items []Item, reason FlushReason) {
		*recs = append(*recs, flushRec{items: items, reason: reason})
	}
}

func item(url string, size int) Item {
	return Item{URL: url, Body: make([]byte, size)}
}

func TestINDFlushesPerObject(t *testing.T) {
	var recs []flushRec
	b := NewBundler(ConfigIND, record(&recs))
	b.Add(item("a", 100))
	b.Add(item("b", 200))
	b.OnLoad()
	b.Complete()
	if len(recs) != 2 {
		t.Fatalf("flushes = %d, want 2", len(recs))
	}
	for _, r := range recs {
		if len(r.items) != 1 || r.reason != FlushObject {
			t.Fatalf("rec = %+v", r)
		}
	}
}

func TestThresholdAccumulates(t *testing.T) {
	var recs []flushRec
	b := NewBundler(Config{Policy: Threshold, ThresholdBytes: 500}, record(&recs))
	b.Add(item("a", 200))
	b.Add(item("b", 200))
	if len(recs) != 0 {
		t.Fatalf("flushed early: %+v", recs)
	}
	b.Add(item("c", 200)) // 600 >= 500
	if len(recs) != 1 || recs[0].reason != FlushThreshold || len(recs[0].items) != 3 {
		t.Fatalf("recs = %+v", recs)
	}
	if b.PendingBytes() != 0 {
		t.Fatalf("pending = %d after flush", b.PendingBytes())
	}
}

func TestThresholdFlushesAtOnload(t *testing.T) {
	var recs []flushRec
	b := NewBundler(Config{Policy: Threshold, ThresholdBytes: 1 << 20}, record(&recs))
	b.Add(item("a", 100))
	b.OnLoad()
	if len(recs) != 1 || recs[0].reason != FlushOnload {
		t.Fatalf("recs = %+v", recs)
	}
}

func TestONLDHoldsUntilOnload(t *testing.T) {
	var recs []flushRec
	b := NewBundler(ConfigONLD, record(&recs))
	b.Add(item("a", 1000))
	b.Add(item("b", 1000))
	if len(recs) != 0 {
		t.Fatal("ONLD flushed before onload")
	}
	b.OnLoad()
	if len(recs) != 1 || len(recs[0].items) != 2 || recs[0].reason != FlushOnload {
		t.Fatalf("recs = %+v", recs)
	}
	// Post-onload arrivals are pushed per-object (stragglers must not wait
	// for a completion drain).
	b.Add(item("c", 500))
	if len(recs) != 2 || recs[1].reason != FlushObject {
		t.Fatalf("recs = %+v", recs)
	}
	b.Complete()
	if len(recs) != 2 {
		t.Fatalf("empty completion drain flushed: %+v", recs)
	}
}

func TestCompleteWithNothingPendingIsQuiet(t *testing.T) {
	var recs []flushRec
	b := NewBundler(ConfigIND, record(&recs))
	b.Complete()
	if len(recs) != 0 {
		t.Fatal("empty complete flushed")
	}
}

func TestByteConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, cfg := range []Config{ConfigIND, Config512K, Config1M, ConfigONLD, {Policy: Threshold, ThresholdBytes: 1000}} {
		var got int64
		b := NewBundler(cfg, func(items []Item, _ FlushReason) {
			for _, it := range items {
				got += int64(len(it.Body))
			}
		})
		var want int64
		n := 20 + rng.Intn(100)
		onloadAt := n / 2
		for i := 0; i < n; i++ {
			size := rng.Intn(100_000)
			want += int64(size)
			b.Add(item("u", size))
			if i == onloadAt {
				b.OnLoad()
			}
		}
		b.Complete()
		if got != want {
			t.Fatalf("%v: bytes out %d, want %d", cfg, got, want)
		}
	}
}

func TestExtremeThresholdsDegenerate(t *testing.T) {
	// PARCEL(1 byte) behaves like IND (one flush per object); PARCEL(huge)
	// behaves like ONLD (single flush at onload).
	var tiny, huge []flushRec
	bt := NewBundler(Config{Policy: Threshold, ThresholdBytes: 1}, record(&tiny))
	bh := NewBundler(Config{Policy: Threshold, ThresholdBytes: math.MaxInt32}, record(&huge))
	for i := 0; i < 10; i++ {
		bt.Add(item("u", 1000))
		bh.Add(item("u", 1000))
	}
	bt.OnLoad()
	bh.OnLoad()
	bt.Complete()
	bh.Complete()
	if len(tiny) != 10 {
		t.Fatalf("tiny threshold flushes = %d, want 10", len(tiny))
	}
	if len(huge) != 1 || len(huge[0].items) != 10 {
		t.Fatalf("huge threshold flushes = %+v, want single 10-item flush", len(huge))
	}
}

func TestConfigStrings(t *testing.T) {
	cases := map[string]Config{
		"PARCEL(IND)":  ConfigIND,
		"PARCEL(512K)": Config512K,
		"PARCEL(1M)":   Config1M,
		"PARCEL(2M)":   Config2M,
		"PARCEL(ONLD)": ConfigONLD,
	}
	for want, cfg := range cases {
		if got := cfg.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{Policy: Threshold}).Validate(); err == nil {
		t.Error("zero threshold accepted")
	}
	if err := (Config{Policy: Policy(99)}).Validate(); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := ConfigIND.Validate(); err != nil {
		t.Error(err)
	}
}

// --- §6 analytical model ----------------------------------------------------

func paperModel() Model {
	return Model{
		Radio:       radio.DefaultLTE(),
		SpeedBps:    6e6 / 8,         // 6 Mbps
		PageBytes:   2 * 1024 * 1024, // 2 MB
		ProxyOnload: 2 * time.Second,
	}
}

func TestOptimalBundleSizeMatchesPaper(t *testing.T) {
	// §6: "for a 2MB page, with download speed of 6Mbps, and α = 0.74 ...
	// the optimal bundle size is approximately 0.9MB."
	m := paperModel()
	b := m.OptimalBundleSize()
	if b < 850e3 || b > 1000e3 {
		t.Fatalf("b* = %.0f bytes, want ≈ 0.9 MB", b)
	}
}

func TestOptimalCountConsistent(t *testing.T) {
	m := paperModel()
	n := m.OptimalBundleCount()
	if got := m.PageBytes / n; math.Abs(got-m.OptimalBundleSize()) > 1 {
		t.Fatalf("B/n* = %v != b* = %v", got, m.OptimalBundleSize())
	}
}

func TestEnergyMinimizedNearOptimalN(t *testing.T) {
	m := paperModel()
	m.ProxyOnload = 10 * time.Second // ensure dl(n) stays positive around n*
	nStar := m.OptimalBundleCount()
	eStar := m.RadioEnergy(nStar)
	for _, factor := range []float64{0.25, 0.5, 2, 4} {
		n := nStar * factor
		if n < 1 {
			n = 1
		}
		if e := m.RadioEnergy(n); e < eStar-1e-9 {
			t.Fatalf("E(%.2f·n*) = %v < E(n*) = %v — n* not a minimum", factor, e, eStar)
		}
	}
}

func TestOLTDecreasesWithN(t *testing.T) {
	m := paperModel()
	prev := math.Inf(1)
	for n := 1.0; n <= 64; n *= 2 {
		olt := m.OLT(n).Seconds()
		if olt >= prev {
			t.Fatalf("OLT(%v) = %v not decreasing", n, olt)
		}
		prev = olt
	}
	// As n → ∞ OLT approaches Tp.
	if m.OLT(1e9) < m.ProxyOnload {
		t.Fatal("OLT fell below Tp")
	}
}

func TestLargerBundlesForFasterLinks(t *testing.T) {
	// Eq. 1 intuition: "for higher download speeds, larger bundles are more
	// acceptable."
	slow, fast := paperModel(), paperModel()
	fast.SpeedBps = 4 * slow.SpeedBps
	if fast.OptimalBundleSize() <= slow.OptimalBundleSize() {
		t.Fatal("faster link did not increase optimal bundle size")
	}
	// And larger pages → larger bundles.
	big := paperModel()
	big.PageBytes = 4 * paperModel().PageBytes
	if big.OptimalBundleSize() <= paperModel().OptimalBundleSize() {
		t.Fatal("larger page did not increase optimal bundle size")
	}
}

func TestEnergyInfinityOutsideValidity(t *testing.T) {
	m := paperModel()
	m.ProxyOnload = 100 * time.Millisecond // (n-1) tail cycles exceed Tp fast
	if e := m.RadioEnergy(50); !math.IsInf(e, 1) {
		t.Fatalf("E outside validity = %v, want +Inf", e)
	}
	if e := m.RadioEnergy(0.5); !math.IsInf(e, 1) {
		t.Fatalf("E(n<1) = %v, want +Inf", e)
	}
}

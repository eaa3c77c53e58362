package experiments

import (
	"reflect"
	"testing"

	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/webgen"
)

// TestFallbackOrderRepeatable is the regression for the §4.5 fallback-order
// defect: on completeNote the client walked its waiting map in Go map order,
// so a page with several objects still missing at completion — seed 12's
// sports25 under PARCEL(512K) — sent its fallback requests in a different
// order from run to run (TLT ±60 µs, BytesUp ±40 B). Ten loads must agree in
// every field.
func TestFallbackOrderRepeatable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed, cfg.Pages, cfg.Runs = 12, 34, 1
	var page webgen.Page
	for _, p := range cfg.PageSet() {
		if p.Name == "sports25" {
			page = p
		}
	}
	if page.Name == "" {
		t.Fatal("seed 12 no longer generates sports25")
	}
	s := ParcelScheme(sched.Config512K)
	want := RunOnce(page, s, cfg, cfg.Seed)
	if want.FallbackRequests < 2 {
		t.Fatalf("page sends %d fallback requests; the test needs at least 2 to order", want.FallbackRequests)
	}
	for i := 1; i < 10; i++ {
		if got := RunOnce(page, s, cfg, cfg.Seed); !reflect.DeepEqual(got, want) {
			t.Fatalf("load %d differs from load 0: TLT %v vs %v, BytesUp %d vs %d, RadioJ %v vs %v",
				i, got.TLT, want.TLT, got.BytesUp, want.BytesUp, got.RadioJ, want.RadioJ)
		}
	}
}

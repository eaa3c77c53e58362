package webgen

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/browser"
	"github.com/parcel-go/parcel/internal/eventsim"
	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/stats"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Spec{Seed: 42, NumPages: 5})
	b := Generate(Spec{Seed: 42, NumPages: 5})
	if len(a) != len(b) {
		t.Fatal("page counts differ")
	}
	for i := range a {
		if a[i].MainURL != b[i].MainURL || a[i].TotalBytes != b[i].TotalBytes || a[i].ObjectCount != b[i].ObjectCount {
			t.Fatalf("page %d differs across identical seeds", i)
		}
	}
	c := Generate(Spec{Seed: 43, NumPages: 5})
	same := true
	for i := range a {
		if a[i].TotalBytes != c[i].TotalBytes {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical sets")
	}
}

func TestDefaultSetSizeIs34(t *testing.T) {
	if got := len(Generate(Spec{Seed: 1})); got != 34 {
		t.Fatalf("default set size = %d, want 34", got)
	}
}

func TestCalibrationTargets(t *testing.T) {
	// Use a large set for stable statistics; the calibration must hold for
	// any seed.
	pages := Generate(Spec{Seed: 7, NumPages: 200})
	var sizes, counts []float64
	rich := 0
	for _, p := range pages {
		sizes = append(sizes, float64(p.TotalBytes))
		counts = append(counts, float64(p.ObjectCount))
		if p.ObjectCount >= 100 {
			rich++
		}
	}
	medianSize := stats.Median(sizes)
	if medianSize < 500e3 || medianSize > 2e6 {
		t.Errorf("median page size = %.0f, want ≈ 1 MB (paper: 1.04 MB)", medianSize)
	}
	if max := stats.Max(sizes); max > 7e6 {
		t.Errorf("max page size = %.0f, want <= ~6 MB (paper: ~5 MB)", max)
	}
	frac := float64(rich) / float64(len(pages))
	if frac < 0.30 || frac > 0.52 {
		t.Errorf("fraction with >=100 objects = %.2f, want ≈ 0.40", frac)
	}
	if stats.Max(counts) > 250 {
		t.Errorf("max object count = %.0f, implausible", stats.Max(counts))
	}
}

func TestStoreContainsAllObjects(t *testing.T) {
	p := Generate(Spec{Seed: 1, NumPages: 3})[0]
	store := p.Store()
	if len(store) != p.ObjectCount {
		t.Fatalf("store has %d entries, page has %d objects (duplicate URLs?)", len(store), p.ObjectCount)
	}
	if _, ok := store.Get(p.MainURL); !ok {
		t.Fatal("main URL missing from store")
	}
}

func TestNoDuplicateURLs(t *testing.T) {
	for _, p := range Generate(Spec{Seed: 3, NumPages: 10}) {
		seen := map[string]bool{}
		for _, o := range p.Objects {
			if seen[o.URL] {
				t.Fatalf("page %s has duplicate URL %s", p.Name, o.URL)
			}
			seen[o.URL] = true
		}
	}
}

func TestInteractivePageExists(t *testing.T) {
	pages := Generate(Spec{Seed: 1, NumPages: 34})
	p := InteractivePage(pages)
	if !p.Interactive {
		t.Fatal("InteractivePage returned non-interactive page")
	}
	gallery := 0
	for _, o := range p.Objects {
		if strings.Contains(o.URL, "/products/") {
			gallery++
		}
	}
	if gallery != GalleryImages {
		t.Fatalf("gallery images = %d, want %d", gallery, GalleryImages)
	}
}

func TestRandomURLPagesMarked(t *testing.T) {
	pages := Generate(Spec{Seed: 1, NumPages: 34})
	n := 0
	for _, p := range pages {
		if p.HasRandomURL {
			n++
		}
	}
	if n == 0 {
		t.Fatal("no randomized-URL pages in set")
	}
}

func TestDomainSpread(t *testing.T) {
	for _, p := range Generate(Spec{Seed: 5, NumPages: 20}) {
		if len(p.Domains) < 3 {
			t.Fatalf("page %s has only %d domains", p.Name, len(p.Domains))
		}
		if len(p.Domains) > 25 {
			t.Fatalf("page %s has %d domains, implausible", p.Name, len(p.Domains))
		}
	}
}

// storeFetcher adapts a page store to the browser Fetcher interface with a
// tiny constant delay.
type storeFetcher struct {
	sim   *eventsim.Simulator
	store map[string]browser.Result
}

func (f *storeFetcher) Fetch(url string, cb func(browser.Result)) {
	f.sim.Schedule(time.Millisecond, func() {
		r, ok := f.store[url]
		if !ok {
			cb(browser.Result{URL: url, Status: 404, At: f.sim.Now()})
			return
		}
		r.At = f.sim.Now()
		cb(r)
	})
}

// TestEngineDiscoversEveryObject is the generator/engine contract: loading a
// generated page discovers exactly the objects the generator created (under
// the fixed-random replay rewrite).
func TestEngineDiscoversEveryObject(t *testing.T) {
	pages := Generate(Spec{Seed: 11, NumPages: 8})
	for _, p := range pages {
		store := make(map[string]browser.Result, p.ObjectCount)
		for _, o := range p.Objects {
			store[o.URL] = browser.Result{URL: o.URL, Status: 200, ContentType: o.ContentType, Body: o.Body}
		}
		sim := eventsim.New(1)
		f := &storeFetcher{sim: sim, store: store}
		e := browser.New(sim, f, browser.Options{CPU: browser.ProxyCPU(), FixedRandom: true})
		e.Load(p.MainURL)
		sim.Run()
		if _, ok := e.CompleteAt(); !ok {
			t.Fatalf("page %s never completed", p.Name)
		}
		if len(e.JSErrors) > 0 {
			t.Fatalf("page %s JS errors: %v", p.Name, e.JSErrors)
		}
		requested := map[string]bool{}
		for _, u := range e.RequestedURLs() {
			requested[u] = true
		}
		for _, o := range p.Objects {
			if !requested[o.URL] {
				t.Errorf("page %s: object %s never requested", p.Name, o.URL)
			}
		}
		for u := range requested {
			if _, ok := store[u]; !ok {
				t.Errorf("page %s: engine requested unknown URL %s", p.Name, u)
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}

func TestOnloadBeforeCompleteOnGeneratedPages(t *testing.T) {
	p := Generate(Spec{Seed: 2, NumPages: 3})[2]
	store := make(map[string]browser.Result)
	for _, o := range p.Objects {
		store[o.URL] = browser.Result{URL: o.URL, Status: 200, ContentType: o.ContentType, Body: o.Body}
	}
	sim := eventsim.New(1)
	e := browser.New(sim, &storeFetcher{sim: sim, store: store}, browser.Options{CPU: browser.MobileCPU(), FixedRandom: true})
	e.Load(p.MainURL)
	sim.Run()
	ol, ok1 := e.OnloadAt()
	co, ok2 := e.CompleteAt()
	if !ok1 || !ok2 {
		t.Fatal("missing milestones")
	}
	// Generated pages carry post-onload timer ads, so complete > onload.
	if co <= ol {
		t.Fatalf("complete %v <= onload %v", co, ol)
	}
}

func BenchmarkGenerate34Pages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Generate(Spec{Seed: int64(i), NumPages: 34})
	}
}

// TestGeneratedObjectsPinValidatorsLazily pins the validator contract of the
// memoised page sets: generating a set hashes nothing (a sweep, which caches
// nothing, never pays for validators), every object's ETag equals
// ContentValidator(body), and page.Objects and the shared store share one
// memo slot per object, so each body is hashed exactly once.
func TestGeneratedObjectsPinValidatorsLazily(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		before := httpsim.ValidatorHashes()
		pages := generateSet(Spec{Seed: seed, NumPages: 12})
		if n := httpsim.ValidatorHashes() - before; n != 0 {
			t.Fatalf("seed %d: generation hashed %d bodies, want 0", seed, n)
		}
		objects := 0
		for _, p := range pages {
			store := p.SharedStore()
			for _, o := range p.Objects {
				objects++
				want := httpsim.ContentValidator(o.Body)
				if got := store[o.URL].ETag(); got != want {
					t.Fatalf("seed %d %s: store ETag %q, want %q", seed, o.URL, got, want)
				}
				if got := o.ETag(); got != want {
					t.Fatalf("seed %d %s: object ETag %q, want %q", seed, o.URL, got, want)
				}
			}
		}
		// One reference hash per object above, one memoised hash behind the
		// two ETag calls.
		if n := httpsim.ValidatorHashes() - before; n != uint64(2*objects) {
			t.Fatalf("seed %d: %d hashes for %d objects, want %d", seed, n, objects, 2*objects)
		}
	}
}

// TestContentValidatorSeparatesPageSets checks the validator on the bodies it
// serves: across the page sets of seeds 1–5, two bodies share a validator
// only if they are the same bytes.
func TestContentValidatorSeparatesPageSets(t *testing.T) {
	byValidator := map[string][]byte{}
	for seed := int64(1); seed <= 5; seed++ {
		for _, p := range generateSet(Spec{Seed: seed, NumPages: 34}) {
			for _, o := range p.Objects {
				v := httpsim.ContentValidator(o.Body)
				if prev, ok := byValidator[v]; ok && !bytes.Equal(prev, o.Body) {
					t.Fatalf("seed %d %s: validator %s names two different bodies (%d and %d bytes)", seed, o.URL, v, len(prev), len(o.Body))
				}
				byValidator[v] = o.Body
			}
		}
	}
}

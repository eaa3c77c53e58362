// Package webgen deterministically generates the synthetic page set the
// evaluation runs on: a stand-in for the paper's 34 pages drawn from the
// Alexa top-500 (§7.2), calibrated to the statistics the paper publishes —
// roughly 40% of pages with at least 100 objects, page sizes from a few KB
// to ~5 MB with a median near 1 MB, objects spread over many domains, JS
// files whose execution discovers further objects, and post-onload async
// loads whose inter-arrival times are under 5 s for ~95% of objects (§4.5).
//
// Pages are emitted as real HTML/CSS/mini-JS text: the browsing engine
// discovers objects by actually parsing and executing this content, exactly
// as the PARCEL proxy and clients do.
package webgen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"

	"github.com/parcel-go/parcel/internal/httpsim"
)

// FixedRandValue is the constant that replaces rand() under the replay
// rewrite (§7.3); it must match the browser engine's FixedRandom builtin.
const FixedRandValue = 4

// Page is one generated page with every object it will ever request.
type Page struct {
	Name    string
	MainURL string
	Objects []httpsim.Object
	Domains []string

	// ObjectCount includes the main HTML.
	ObjectCount int
	// TotalBytes is the sum of object body sizes.
	TotalBytes int64
	// Interactive marks pages carrying a local-interaction gallery (§8.2).
	Interactive bool
	// HasRandomURL marks pages whose JS derives a randomized URL (§7.3).
	HasRandomURL bool
	// HasHTTPS marks pages referencing encrypted objects that take the
	// client's direct fallback path (§4.5).
	HasHTTPS bool

	// store is the page's cached origin store, shared by every topology
	// built for this page (the Generate cache populates it; origin servers
	// only read it). Hand-built pages leave it nil.
	store httpsim.MapStore
}

// Store returns the page's objects as a freshly built origin store. The
// result is the caller's to mutate (tests extend it with extra endpoints).
func (p Page) Store() httpsim.MapStore {
	m := make(httpsim.MapStore, len(p.Objects))
	for _, o := range p.Objects {
		m[o.URL] = o
	}
	return m
}

// SharedStore returns the page's prebuilt origin store, shared by every
// topology serving this page. The result is read-only: origin servers only
// look objects up, and mutating it would poison the generation cache. When
// the page has no prebuilt store, or Objects was extended after generation
// (the store would be stale), it falls back to a fresh Store build.
func (p Page) SharedStore() httpsim.MapStore {
	if p.store != nil && len(p.store) == len(p.Objects) {
		return p.store
	}
	return p.Store()
}

// Spec controls generation.
type Spec struct {
	Seed     int64
	NumPages int // defaults to 34, the paper's evaluation set size
}

// categories label pages the way the paper describes its set ("news, sports,
// photo streaming, business and science").
var categories = []string{"news", "sports", "photos", "business", "science", "shopping", "video", "reference"}

// maxPageCacheEntries bounds the generated-set cache; sweeps use a handful
// of distinct specs, so an overflow means something is generating specs in a
// loop and the epoch is simply dropped (mirroring the browser artifact
// cache).
const maxPageCacheEntries = 64

// pageCache memoizes Generate by spec: generation is deterministic, so every
// scheme, round, and worker of a sweep shares one immutable page set (and
// one origin store per page) instead of regenerating megabytes of identical
// HTML/CSS/JS per figure. Spec is comparable, so it keys the map directly.
var pageCache struct {
	sync.Mutex
	m map[Spec][]Page
}

// Generate produces the full page set for a spec. The result is shared and
// must be treated as immutable — every object body, store, and page slice
// may be aliased by concurrent simulations.
func Generate(spec Spec) []Page {
	if spec.NumPages <= 0 {
		spec.NumPages = 34
	}
	pageCache.Lock()
	defer pageCache.Unlock()
	if pages, ok := pageCache.m[spec]; ok {
		return pages
	}
	pages := generateSet(spec)
	if pageCache.m == nil || len(pageCache.m) >= maxPageCacheEntries {
		pageCache.m = make(map[Spec][]Page, 8)
	}
	pageCache.m[spec] = pages
	return pages
}

func generateSet(spec Spec) []Page {
	rng := rand.New(rand.NewSource(spec.Seed))
	pages := make([]Page, 0, spec.NumPages)
	for i := 0; i < spec.NumPages; i++ {
		name := fmt.Sprintf("%s%02d", categories[i%len(categories)], i)
		cfg := pageConfig{
			name: name,
			// Page 1 of every set is the interactive shop page used for the
			// §8.2 session experiments.
			interactive: i == 1,
			// A few pages use randomized URLs, exercising the §7.3 rewrite
			// and the missing-object fallback.
			randomURL: i%11 == 3,
			// A few pages carry encrypted beacons (§4.5 HTTPS fallback).
			https: i%7 == 2,
		}
		page := generatePage(rng, cfg)
		// Build the origin store once per page; every topology serving this
		// page shares it read-only. The objects are pinned in place, so the
		// store, page.Objects and any replay archive recorded from them share
		// one lazily computed validator per body.
		page.store = make(httpsim.MapStore, len(page.Objects))
		for i, o := range page.Objects {
			o = o.Pinned()
			page.Objects[i] = o
			page.store[o.URL] = o
		}
		pages = append(pages, page)
	}
	return pages
}

// InteractivePage returns the first interactive page of the set.
func InteractivePage(pages []Page) Page {
	for _, p := range pages {
		if p.Interactive {
			return p
		}
	}
	panic("webgen: no interactive page in set")
}

type pageConfig struct {
	name        string
	interactive bool
	randomURL   bool
	https       bool
}

func generatePage(rng *rand.Rand, cfg pageConfig) Page {
	p := Page{
		Name:         cfg.name,
		Interactive:  cfg.interactive,
		HasRandomURL: cfg.randomURL,
		HasHTTPS:     cfg.https,
	}
	primary := "www." + cfg.name + ".com"
	p.MainURL = "http://" + primary + "/index.html"

	// Object-count category: calibrated so ~40% of pages have >= 100
	// objects (the paper's Alexa analysis, §2.1).
	var nObjects int
	switch u := rng.Float64(); {
	case u < 0.25:
		nObjects = 8 + rng.Intn(23) // 8..30
	case u < 0.60:
		nObjects = 30 + rng.Intn(70) // 30..99
	default:
		nObjects = 100 + rng.Intn(100) // 100..199
	}

	// Domains: primary + CDNs + third parties, growing with richness.
	nDomains := 3 + nObjects/12
	if nDomains > 22 {
		nDomains = 22
	}
	domains := []string{primary}
	for i := 1; i < nDomains; i++ {
		switch {
		case i <= 2:
			domains = append(domains, fmt.Sprintf("cdn%d.%s.com", i, cfg.name))
		case i%3 == 0:
			domains = append(domains, fmt.Sprintf("ads%d.adnet%d.net", i, i%5))
		case i%3 == 1:
			domains = append(domains, fmt.Sprintf("static%d.%s.com", i, cfg.name))
		default:
			domains = append(domains, fmt.Sprintf("widgets%d.tpsvc%d.org", i, i%4))
		}
	}
	p.Domains = domains

	// Partition the object budget.
	nCSS := 2 + rng.Intn(4) // 2..5
	nSyncJS := 3 + nObjects/8
	nAsyncJS := 1 + rng.Intn(3)  // async-attribute scripts
	nTimerAds := 1 + rng.Intn(2) // images fetched by post-onload timers
	nJSDyn := nObjects / 5       // images discovered only by executing JS
	nImages := nObjects - 1 - nCSS - nSyncJS - nAsyncJS - nTimerAds - nJSDyn
	if nImages < 2 {
		nImages = 2
	}

	pickDomain := func(weightPrimary float64) string {
		if rng.Float64() < weightPrimary {
			return domains[rng.Intn(min(3, len(domains)))]
		}
		return domains[rng.Intn(len(domains))]
	}

	var (
		cssURLs     []string
		syncJSURLs  []string
		asyncJSURLs []string
		imgURLs     []string
	)

	// Plain images referenced from the HTML body.
	for i := 0; i < nImages; i++ {
		u := fmt.Sprintf("http://%s/img/%s_%d.jpg", pickDomain(0.55), cfg.name, i)
		imgURLs = append(imgURLs, u)
		p.Objects = append(p.Objects, httpsim.Object{
			URL: u, ContentType: "image/jpeg", Body: filler(imageSize(rng)),
		})
	}

	// CSS files, each pulling a few background assets; the first may import
	// another sheet.
	for i := 0; i < nCSS; i++ {
		domain := pickDomain(0.8)
		u := fmt.Sprintf("http://%s/css/style%d.css", domain, i)
		cssURLs = append(cssURLs, u)
		var refs []string
		nBg := 1 + rng.Intn(3)
		for j := 0; j < nBg; j++ {
			bg := fmt.Sprintf("http://%s/img/bg%d_%d.png", domain, i, j)
			refs = append(refs, bg)
			p.Objects = append(p.Objects, httpsim.Object{
				URL: bg, ContentType: "image/png", Body: filler(2000 + rng.Intn(18000)),
			})
		}
		var imp string
		if i == 0 {
			imp = fmt.Sprintf("http://%s/css/reset.css", domain)
			p.Objects = append(p.Objects, httpsim.Object{
				URL: imp, ContentType: "text/css", Body: []byte(cssBody(rng, nil, "", 3000)),
			})
		}
		p.Objects = append(p.Objects, httpsim.Object{
			URL: u, ContentType: "text/css", Body: []byte(cssBody(rng, refs, imp, 4000+rng.Intn(24000))),
		})
	}

	// Synchronous JS: some files fetch dynamic objects when executed — the
	// dependency chains that inflate DIR's load time (§2.1). The first
	// script additionally document.writes a loader script (a depth-2 chain:
	// HTML → app0.js → loader.js → images), the pattern that forces extra
	// serial round trips in a traditional browser.
	dynPerJS := 0
	if nSyncJS > 0 {
		dynPerJS = nJSDyn / nSyncJS
	}
	dynLeft := nJSDyn
	for i := 0; i < nSyncJS; i++ {
		domain := pickDomain(0.7)
		u := fmt.Sprintf("http://%s/js/app%d.js", domain, i)
		syncJSURLs = append(syncJSURLs, u)
		nDyn := dynPerJS
		if i == nSyncJS-1 {
			nDyn = dynLeft
		}
		dynLeft -= nDyn
		var fetches []string
		for j := 0; j < nDyn; j++ {
			du := fmt.Sprintf("http://%s/dyn/%s_%d_%d.png", pickDomain(0.5), cfg.name, i, j)
			fetches = append(fetches, du)
			p.Objects = append(p.Objects, httpsim.Object{
				URL: du, ContentType: "image/png", Body: filler(imageSize(rng)),
			})
		}
		extra := ""
		if i == 0 {
			loaderDomain := pickDomain(0.4)
			loaderURL := fmt.Sprintf("http://%s/js/loader_%s.js", loaderDomain, cfg.name)
			var loaderFetches []string
			nLoader := 2 + rng.Intn(3)
			for j := 0; j < nLoader; j++ {
				lu := fmt.Sprintf("http://%s/dyn/loaded_%s_%d.png", loaderDomain, cfg.name, j)
				loaderFetches = append(loaderFetches, lu)
				p.Objects = append(p.Objects, httpsim.Object{
					URL: lu, ContentType: "image/png", Body: filler(imageSize(rng)),
				})
			}
			p.Objects = append(p.Objects, httpsim.Object{
				URL: loaderURL, ContentType: "application/javascript",
				Body: []byte(jsBody(rng, loaderFetches, 1200)),
			})
			extra = fmt.Sprintf("document.write(\"<script src='%s'></\" + \"script>\");\n", loaderURL)
		}
		p.Objects = append(p.Objects, httpsim.Object{
			URL: u, ContentType: "application/javascript",
			Body: []byte(extra + jsBody(rng, fetches, 2000+rng.Intn(30000))),
		})
	}

	// Async-attribute scripts: load ad frames without blocking onload.
	for i := 0; i < nAsyncJS; i++ {
		domain := domains[len(domains)-1-i%len(domains)]
		u := fmt.Sprintf("http://%s/js/widget%d.js", domain, i)
		asyncJSURLs = append(asyncJSURLs, u)
		ad := fmt.Sprintf("http://%s/ad/creative%d.gif", domain, i)
		p.Objects = append(p.Objects, httpsim.Object{
			URL: ad, ContentType: "image/gif", Body: filler(5000 + rng.Intn(40000)),
		})
		p.Objects = append(p.Objects, httpsim.Object{
			URL: u, ContentType: "application/javascript",
			Body: []byte(jsBody(rng, []string{ad}, 1500+rng.Intn(6000))),
		})
	}

	// Post-onload timer ads: ~95% under 5 s (the paper's inter-arrival
	// statistic behind the proxy completion heuristic, §4.5).
	var timerStmts []string
	for i := 0; i < nTimerAds; i++ {
		delayMS := 200 + rng.Intn(2300)
		if rng.Float64() < 0.05 {
			delayMS = 4000 + rng.Intn(2500)
		}
		au := fmt.Sprintf("http://%s/ad/late%d.png", pickDomain(0.2), i)
		p.Objects = append(p.Objects, httpsim.Object{
			URL: au, ContentType: "image/png", Body: filler(4000 + rng.Intn(30000)),
		})
		timerStmts = append(timerStmts,
			fmt.Sprintf("setTimeout(%d, function() { fetch(%q); });", delayMS, au))
	}

	// Randomized-URL script (§7.3): the URL derives from rand(); under the
	// replay rewrite both proxy and client compute ...r=FixedRandValue.
	if cfg.randomURL {
		ru := fmt.Sprintf("http://%s/track/pixel_r%d.gif", domains[len(domains)-1], FixedRandValue)
		p.Objects = append(p.Objects, httpsim.Object{
			URL: ru, ContentType: "image/gif", Body: filler(800),
		})
		base := fmt.Sprintf("http://%s/track/pixel_r", domains[len(domains)-1])
		timerStmts = append(timerStmts,
			fmt.Sprintf(`fetch(%q + rand(10) + ".gif");`, base))
	}

	// Interactive gallery (§8.2): preload product images at first download;
	// clicks cycle through them locally.
	var galleryStmts []string
	if cfg.interactive {
		n := GalleryImages
		var urls []string
		for i := 0; i < n; i++ {
			gu := fmt.Sprintf("http://cdn1.%s.com/products/item%d.jpg", cfg.name, i)
			urls = append(urls, gu)
			p.Objects = append(p.Objects, httpsim.Object{
				URL: gu, ContentType: "image/jpeg", Body: filler(30000 + rng.Intn(30000)),
			})
		}
		galleryStmts = append(galleryStmts, "var gallery_idx = 0;")
		for _, gu := range urls {
			galleryStmts = append(galleryStmts, fmt.Sprintf("fetch(%q);", gu))
		}
		galleryStmts = append(galleryStmts, fmt.Sprintf(`
onEvent("click", "gallery-next", function() {
  gallery_idx = (gallery_idx + 1) %% %d;
  document.hide("product-" + gallery_idx);
  document.show("product-" + gallery_idx);
});`, n))
	}

	// Encrypted beacons: the proxy cannot parse or push these; the client
	// fetches them over its direct path (§4.5 fallback).
	var httpsImgs []string
	if cfg.https {
		for i := 0; i < 1+rng.Intn(2); i++ {
			hu := fmt.Sprintf("https://%s/secure/beacon%d.gif", domains[min(1, len(domains)-1)], i)
			httpsImgs = append(httpsImgs, hu)
			p.Objects = append(p.Objects, httpsim.Object{
				URL: hu, ContentType: "image/gif", Body: filler(900 + rng.Intn(2000)),
			})
		}
	}
	imgURLs = append(imgURLs, httpsImgs...)

	inline := strings.Join(append(timerStmts, galleryStmts...), "\n")
	htmlSize := 15000 + rng.Intn(60000)
	html := htmlBody(rng, cssURLs, syncJSURLs, asyncJSURLs, imgURLs, inline, htmlSize)
	p.Objects = append(p.Objects, httpsim.Object{
		URL: p.MainURL, ContentType: "text/html", Body: []byte(html),
	})

	p.ObjectCount = len(p.Objects)
	for _, o := range p.Objects {
		p.TotalBytes += int64(len(o.Body))
	}
	return p
}

// GalleryImages is the product-gallery size of the interactive page.
const GalleryImages = 8

// imageSize draws from a clamped lognormal whose median sits near 10 KB —
// small-to-moderate objects, per the paper's object-size analysis.
func imageSize(rng *rand.Rand) int {
	v := math.Exp(math.Log(10_000) + rng.NormFloat64()*1.2)
	if v < 300 {
		v = 300
	}
	if v > 1_000_000 {
		v = 1_000_000
	}
	return int(v)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// fillerPool backs opaque object bodies (images, fonts): all slices alias one
// read-only buffer so a multi-megabyte page set stays cheap in memory.
var fillerPool = func() []byte {
	b := make([]byte, 1_200_000)
	for i := range b {
		b[i] = byte('A' + i%23)
	}
	return b
}()

func filler(n int) []byte {
	if n <= len(fillerPool) {
		return fillerPool[:n]
	}
	return make([]byte, n)
}

// htmlBody emits real markup referencing the page's resources, padded with
// content paragraphs to approximate targetSize.
func htmlBody(rng *rand.Rand, css, syncJS, asyncJS, imgs []string, inlineJS string, targetSize int) string {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html>\n<head>\n<title>generated page</title>\n")
	for _, u := range css {
		fmt.Fprintf(&b, "<link rel=\"stylesheet\" href=%q>\n", u)
	}
	for _, u := range syncJS {
		fmt.Fprintf(&b, "<script src=%q></script>\n", u)
	}
	for _, u := range asyncJS {
		fmt.Fprintf(&b, "<script src=%q async></script>\n", u)
	}
	b.WriteString("</head>\n<body>\n")
	if inlineJS != "" {
		fmt.Fprintf(&b, "<script>\n%s\n</script>\n", inlineJS)
	}
	// Interleave images with text content.
	for i, u := range imgs {
		fmt.Fprintf(&b, "<div class=\"story\"><img src=%q alt=\"img%d\">", u, i)
		b.WriteString("<p>")
		b.WriteString(loremSentence(rng))
		b.WriteString("</p></div>\n")
	}
	for b.Len() < targetSize {
		fmt.Fprintf(&b, "<p>%s</p>\n", loremSentence(rng))
	}
	b.WriteString("</body>\n</html>\n")
	return b.String()
}

// cssBody emits a stylesheet with the given url() references and optional
// @import, padded with rules to approximate targetSize.
func cssBody(rng *rand.Rand, assetRefs []string, importURL string, targetSize int) string {
	var b strings.Builder
	if importURL != "" {
		fmt.Fprintf(&b, "@import %q;\n", importURL)
	}
	for i, u := range assetRefs {
		fmt.Fprintf(&b, ".bg%d { background-image: url(%q); }\n", i, u)
	}
	i := 0
	for b.Len() < targetSize {
		fmt.Fprintf(&b, ".pad%d { margin: %dpx; padding: %dpx; color: #%06x; }\n",
			i, rng.Intn(40), rng.Intn(40), rng.Intn(0xffffff))
		i++
	}
	return b.String()
}

// jsBody emits a script that fetches the given URLs plus light computational
// work, padded with comments to approximate targetSize.
func jsBody(rng *rand.Rand, fetchURLs []string, targetSize int) string {
	var b strings.Builder
	b.WriteString("var acc = 0;\n")
	// Computational work scaling with script size: executing a framework-
	// sized script costs a 2012-class phone on the order of 100 ms.
	fmt.Fprintf(&b, "for (var i = 0; i < %d; i = i + 1) { acc = acc + i; }\n", targetSize/10+rng.Intn(60))
	for _, u := range fetchURLs {
		fmt.Fprintf(&b, "fetch(%q);\n", u)
	}
	b.WriteString("document.append(\"section\");\n")
	for b.Len() < targetSize {
		fmt.Fprintf(&b, "// %s\n", loremSentence(rng))
	}
	return b.String()
}

var loremWords = strings.Fields(`lorem ipsum dolor sit amet consectetur
adipiscing elit sed do eiusmod tempor incididunt ut labore et dolore magna
aliqua enim ad minim veniam quis nostrud exercitation ullamco laboris nisi
aliquip ex ea commodo consequat`)

func loremSentence(rng *rand.Rand) string {
	n := 8 + rng.Intn(14)
	words := make([]string, n)
	for i := range words {
		words[i] = loremWords[rng.Intn(len(loremWords))]
	}
	return strings.Join(words, " ")
}

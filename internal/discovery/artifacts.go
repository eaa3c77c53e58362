// Package discovery is what both arms' object identification (§4.2) shares:
// the content-keyed page-artifact cache (parsed DOM trees, CSS refs,
// inline-style asset URLs), the script host environment page JavaScript runs
// against, and the validated exec-outcome memo that replays what a script
// does instead of re-interpreting it. browser.Engine (virtual clock) and
// parcelnet's crawler (goroutines, real time) are its two hosts; everything
// here is a pure function of its inputs, so it holds no clock and no RNG.
//
// Key discipline: every artifact is keyed by content, and the content maps
// decide what a body resolves to. HTML and CSSRefs (like
// minijs.CompileBytes) also keep an identity index in front of their map
// (internal/bodyindex): a body slice seen before is answered by its start
// address and length, without hashing it. The index holds only what the
// content map holds, is cleared with it, and never keeps a body alive. It is
// sound because bodies are immutable: a body passed to HTML or CSSRefs must
// not be modified afterwards, which both hosts keep (httpsim.Object.Pinned,
// the object cache's shared slices). Under -tags simdebug every index hit
// re-checks the bytes and panics on a change.
package discovery

import (
	"sync"
	"unsafe"

	"github.com/parcel-go/parcel/internal/bodyindex"
	"github.com/parcel-go/parcel/internal/cssparse"
	"github.com/parcel-go/parcel/internal/htmlparse"
)

// Page-artifact cache: parsed DOM trees, CSS ref lists, and inline-style
// asset URLs, shared across every host in the process. The same webgen
// page is loaded by the DIR, CB, and PARCEL schemes — and by every round of
// a sweep, and by every tenant session of the TCP proxy — and within one
// PARCEL load the proxy's discovery browser and the client's renderer each
// parse the identical bytes. All cached values
// are pure functions of their keys (document bytes, or stylesheet text +
// base URL), and htmlparse trees are immutable once Parse returns (the
// hosts only read them), so sharing cannot leak state between rounds:
// eviction or a cold cache can only cost a re-parse, never change a metric.
// Modelled CPU costs stay untouched by construction — they derive from byte
// lengths (perKB) and interpreter op counts, not from real Go work done.
//
// Concurrency: the experiment runner loads pages from a worker pool and the
// TCP proxy crawls from one goroutine per object, so the cache is guarded by
// an RWMutex; hits take the read lock only.

// maxArtifactEntries bounds the total entry count across the three maps.
// When full, the cache is cleared outright (epoch clear, like the minijs
// program cache): deterministic, and cheaper than tracking recency.
const maxArtifactEntries = 4096

type htmlArtifact struct {
	root  *htmlparse.Node
	nodes []*htmlparse.Node // element nodes (Tag != "") in document order
	err   error             // body does not parse (deterministic per body)
}

// cssArtifact is what the CSS identity index holds for a stylesheet body:
// the base URL it was resolved against and the refs the content map holds
// for that pair.
type cssArtifact struct {
	base string
	refs []cssparse.Ref
}

var artCache = newArtifactCache()

type artifactCache struct {
	mu sync.RWMutex
	n  int // total entries across the content maps
	// html is keyed by document bytes; refs and assets are two-level
	// (base URL, then content) so the hot inner lookup can use Go's
	// byte-slice-keyed string indexing without allocating.
	html   map[string]*htmlArtifact
	refs   map[string]map[string][]cssparse.Ref
	assets map[string]map[string][]string
	// htmlIdx and refsIdx are the identity fronts of html and refs: a repeat
	// lookup of one body object is answered by its address and length,
	// without hashing the body. They hold only what the content maps hold
	// and are cleared with them.
	htmlIdx *bodyindex.Index[*htmlArtifact]
	refsIdx *bodyindex.Index[cssArtifact]
}

func newArtifactCache() *artifactCache {
	c := &artifactCache{}
	c.htmlIdx = bodyindex.New[*htmlArtifact](&c.mu)
	c.refsIdx = bodyindex.New[cssArtifact](&c.mu)
	clearLocked(c)
	return c
}

// evictLocked clears the whole cache once it reaches capacity. Caller holds
// the write lock. Callers that cached an outer map pointer must re-fetch it
// after inserting (insert helpers below handle this).
func evictLocked() {
	if artCache.n >= maxArtifactEntries {
		clearLocked(artCache)
	}
}

func clearLocked(c *artifactCache) {
	c.html = make(map[string]*htmlArtifact, 64)
	c.refs = make(map[string]map[string][]cssparse.Ref, 16)
	c.assets = make(map[string]map[string][]string, 16)
	c.n = 0
	c.htmlIdx.Clear()
	c.refsIdx.Clear()
}

// Reset drops every memoized artifact and script outcome. Nothing depends on
// the caches' contents, so this only costs recomputation; the equivalence
// tests use it to compare a cold memo against a warm one.
func Reset() {
	artCache.mu.Lock()
	clearLocked(artCache)
	artCache.mu.Unlock()
	outcomes.Lock()
	outcomes.m = nil
	outcomes.Unlock()
}

func buildHTMLArtifact(body []byte) *htmlArtifact {
	root, err := htmlparse.Parse(body)
	if err != nil {
		return &htmlArtifact{err: err}
	}
	art := &htmlArtifact{root: root}
	htmlparse.Walk(root, func(n *htmlparse.Node) {
		if n.Tag != "" {
			art.nodes = append(art.nodes, n)
		}
	})
	return art
}

// HTML returns the parsed tree and its element list for a document body,
// parsing at most once per distinct body process-wide. err is the parse
// error of a body that does not parse. body must not be modified once
// passed: a repeat call with the same slice is answered by its identity
// (see bodyindex) in time independent of its length; under -tags simdebug
// such a hit re-checks the bytes and panics if they changed.
func HTML(body []byte) (root *htmlparse.Node, nodes []*htmlparse.Node, err error) {
	artCache.mu.RLock()
	art, indexed := artCache.htmlIdx.Get(body)
	if !indexed {
		art = artCache.html[string(body)]
	} else if bodyindex.Check && artCache.html[string(body)] != art {
		artCache.mu.RUnlock()
		panic("discovery: document body modified after HTML memoised it")
	}
	epoch := artCache.htmlIdx.Epoch()
	artCache.mu.RUnlock()
	if indexed {
		return art.root, art.nodes, art.err
	}
	if art == nil {
		art = buildHTMLArtifact(body)
		artCache.mu.Lock()
		evictLocked()
		if prev := artCache.html[string(body)]; prev != nil {
			art = prev // lost a race; keep the first tree so sharing holds
		} else {
			artCache.html[string(body)] = art
			artCache.n++
		}
		epoch = artCache.htmlIdx.Epoch()
	} else {
		artCache.mu.Lock()
	}
	artCache.htmlIdx.Put(epoch, body, art)
	artCache.mu.Unlock()
	return art.root, art.nodes, art.err
}

// htmlString is HTML for fragments already held as strings (document.write
// payloads).
func htmlString(html string) (*htmlparse.Node, error) {
	artCache.mu.RLock()
	art := artCache.html[html]
	artCache.mu.RUnlock()
	if art == nil {
		art = buildHTMLArtifact([]byte(html))
		artCache.mu.Lock()
		evictLocked()
		if prev := artCache.html[html]; prev != nil {
			art = prev
		} else {
			artCache.html[html] = art
			artCache.n++
		}
		artCache.mu.Unlock()
	}
	return art.root, art.err
}

// CSSRefs returns cssparse.Refs(body, baseURL), computed once per (base URL,
// stylesheet bytes) pair. body must not be modified once passed: a repeat
// call with the same slice and base URL is answered by the slice's identity
// (see bodyindex) in time independent of its length; under -tags simdebug
// such a hit re-checks the bytes and panics if they changed.
func CSSRefs(body []byte, baseURL string) []cssparse.Ref {
	artCache.mu.RLock()
	art, indexed := artCache.refsIdx.Get(body)
	indexed = indexed && art.base == baseURL
	refs, hit := art.refs, indexed
	if !indexed {
		refs, hit = artCache.refs[baseURL][string(body)]
	} else if bodyindex.Check {
		if cur, ok := artCache.refs[baseURL][string(body)]; !ok || !sameRefs(cur, refs) {
			artCache.mu.RUnlock()
			panic("discovery: stylesheet body modified after CSSRefs memoised it")
		}
	}
	epoch := artCache.refsIdx.Epoch()
	artCache.mu.RUnlock()
	if indexed {
		return refs
	}
	if !hit {
		refs = cssparse.Refs(string(body), baseURL)
		artCache.mu.Lock()
		evictLocked()
		inner := artCache.refs[baseURL] // after evictLocked, which may have cleared
		if inner == nil {
			inner = make(map[string][]cssparse.Ref, 4)
			artCache.refs[baseURL] = inner
		}
		if prev, ok := inner[string(body)]; ok {
			refs = prev
		} else {
			inner[string(body)] = refs
			artCache.n++
		}
		epoch = artCache.refsIdx.Epoch()
	} else {
		artCache.mu.Lock()
	}
	artCache.refsIdx.Put(epoch, body, cssArtifact{base: baseURL, refs: refs})
	artCache.mu.Unlock()
	return refs
}

// sameRefs reports whether a and b are the one memoised slice.
func sameRefs(a, b []cssparse.Ref) bool {
	return len(a) == len(b) && unsafe.SliceData(a) == unsafe.SliceData(b)
}

// AssetURLs returns cssparse.AssetURLs(text, baseURL), computed once per
// (base URL, inline-style text) pair.
func AssetURLs(text, baseURL string) []string {
	artCache.mu.RLock()
	urls, hit := artCache.assets[baseURL][text]
	artCache.mu.RUnlock()
	if hit {
		return urls
	}
	urls = cssparse.AssetURLs(text, baseURL)
	artCache.mu.Lock()
	evictLocked()
	inner := artCache.assets[baseURL]
	if inner == nil {
		inner = make(map[string][]string, 4)
		artCache.assets[baseURL] = inner
	}
	if prev, ok := inner[text]; ok {
		urls = prev
	} else {
		inner[text] = urls
		artCache.n++
	}
	artCache.mu.Unlock()
	return urls
}

// Package discovery is what both arms' object identification (§4.2) shares:
// the content-keyed page-artifact cache (parsed DOM trees, CSS refs,
// inline-style asset URLs), the script host environment page JavaScript runs
// against, and the validated exec-outcome memo that replays what a script
// does instead of re-interpreting it. browser.Engine (virtual clock) and
// parcelnet's crawler (goroutines, real time) are its two hosts; everything
// here is a pure function of its inputs, so it holds no clock and no RNG.
package discovery

import (
	"strings"
	"sync"

	"github.com/parcel-go/parcel/internal/cssparse"
	"github.com/parcel-go/parcel/internal/htmlparse"
	"github.com/parcel-go/parcel/internal/minijs"
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

var artCache = struct {
	mu sync.RWMutex
	n  int // total entries across all maps
	// html is keyed by document bytes; refs and assets are two-level
	// (base URL, then content) so the hot inner lookup can use Go's
	// byte-slice-keyed string indexing without allocating.
	html   map[string]*htmlArtifact
	refs   map[string]map[string][]cssparse.Ref
	assets map[string]map[string][]string
}{
	html:   make(map[string]*htmlArtifact, 64),
	refs:   make(map[string]map[string][]cssparse.Ref, 16),
	assets: make(map[string]map[string][]string, 16),
}

// evictLocked clears the whole cache once it reaches capacity. Caller holds
// the write lock. Callers that cached an outer map pointer must re-fetch it
// after inserting (insert helpers below handle this).
func evictLocked() {
	if artCache.n >= maxArtifactEntries {
		clearLocked()
	}
}

func clearLocked() {
	artCache.html = make(map[string]*htmlArtifact, 64)
	artCache.refs = make(map[string]map[string][]cssparse.Ref, 16)
	artCache.assets = make(map[string]map[string][]string, 16)
	artCache.n = 0
}

// Reset drops every memoized artifact and script outcome. Nothing depends on
// the caches' contents, so this only costs recomputation; the equivalence
// tests use it to compare a cold memo against a warm one.
func Reset() {
	artCache.mu.Lock()
	clearLocked()
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
// error of a body that does not parse.
func HTML(body []byte) (root *htmlparse.Node, nodes []*htmlparse.Node, err error) {
	artCache.mu.RLock()
	art := artCache.html[string(body)]
	artCache.mu.RUnlock()
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
		artCache.mu.Unlock()
	}
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
// stylesheet bytes) pair.
func CSSRefs(body []byte, baseURL string) []cssparse.Ref {
	artCache.mu.RLock()
	inner := artCache.refs[baseURL]
	refs, hit := inner[string(body)]
	artCache.mu.RUnlock()
	if hit {
		return refs
	}
	refs = cssparse.Refs(string(body), baseURL)
	artCache.mu.Lock()
	evictLocked()
	inner = artCache.refs[baseURL] // re-fetch: evictLocked may have cleared
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
	artCache.mu.Unlock()
	return refs
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

// Prewarm populates the artifact and program caches for one page object
// before any scheme loads it. internal/scenario calls this while building a
// topology, so by the time engines run — across DIR, CB, and PARCEL, and
// across sweep rounds — parsing and script compilation are cache hits. It
// is an optimization only: engines compute identical artifacts on demand if
// it is never called.
func Prewarm(url, contentType string, body []byte) {
	switch {
	case strings.Contains(contentType, "html"):
		_, nodes, err := HTML(body)
		if err != nil {
			return
		}
		for _, n := range nodes {
			switch n.Tag {
			case "script":
				if n.Attr("src") == "" && strings.TrimSpace(n.Text) != "" {
					_, _ = minijs.Compile(n.Text)
				}
			case "style":
				AssetURLs(n.Text, url)
			}
		}
	case strings.Contains(contentType, "css"):
		CSSRefs(body, url)
	case strings.Contains(contentType, "javascript"):
		_, _ = minijs.CompileBytes(body)
	}
}

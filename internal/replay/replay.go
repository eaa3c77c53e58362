// Package replay is the web-page-replay equivalent the paper's methodology
// depends on (§7.3): record a page's objects once, then serve the exact same
// snapshot to every scheme and run, with randomized URLs rewritten to
// constants so all runs request identical object sets.
//
// An Archive is an immutable snapshot of one or more pages; it implements
// httpsim.Store for the simulated origin servers, serves net/http for the
// real-network mode, and round-trips through a JSON container on disk.
package replay

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/webgen"
)

// Archive is a recorded set of objects keyed by URL.
type Archive struct {
	mu      sync.RWMutex
	objects map[string]httpsim.Object
	// Misses counts lookups that found nothing (instrumentation).
	Misses int
}

// NewArchive returns an empty archive.
func NewArchive() *Archive {
	return &Archive{objects: make(map[string]httpsim.Object)}
}

// FromPages records every object of the given generated pages.
func FromPages(pages ...webgen.Page) *Archive {
	a := NewArchive()
	for _, p := range pages {
		for _, o := range p.Objects {
			a.Record(o)
		}
	}
	return a
}

// Record stores one object, overwriting any previous version of its URL. The
// archive is a snapshot: o.Body must not change afterwards, which is what
// lets the stored object memoise its content validator (httpsim.Object.Pinned)
// instead of hashing the body for every response.
func (a *Archive) Record(o httpsim.Object) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.objects[o.URL] = o.Pinned()
}

// Get implements httpsim.Store.
func (a *Archive) Get(url string) (httpsim.Object, bool) {
	a.mu.RLock()
	o, ok := a.objects[url]
	a.mu.RUnlock()
	if !ok {
		a.mu.Lock()
		a.Misses++
		a.mu.Unlock()
	}
	return o, ok
}

// Len returns the number of recorded objects.
func (a *Archive) Len() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.objects)
}

// URLs returns every recorded URL, sorted.
func (a *Archive) URLs() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]string, 0, len(a.objects))
	for u := range a.objects {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// TotalBytes sums recorded body sizes.
func (a *Archive) TotalBytes() int64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var sum int64
	for _, o := range a.objects {
		sum += int64(len(o.Body))
	}
	return sum
}

// randParam matches cache-buster style query parameters whose value varies
// per run (r=..., rand=..., t=..., ts=..., cb=... with numeric values).
var randParam = regexp.MustCompile(`([?&](?:r|rand|t|ts|cb|nonce)=)\d+`)

// randRepl keeps the parameter name and substitutes the fixed value.
var randRepl = "${1}" + strconv.Itoa(webgen.FixedRandValue)

// RewriteURL normalizes a randomized URL the way the paper's modified
// web-page-replay does (§7.3): run-variant numeric cache-buster values are
// replaced by the fixed constant, so all schemes and runs request the same
// object names. A URL with no '?' or '&' holds no parameter to rewrite and is
// returned without running the regexp.
func RewriteURL(url string) string {
	if !strings.ContainsAny(url, "?&") {
		return url
	}
	return randParam.ReplaceAllString(url, randRepl)
}

// Rewriting wraps an archive (or any store) so lookups are normalized with
// RewriteURL before hitting the store.
type Rewriting struct {
	Store httpsim.Store
}

// Get implements httpsim.Store with URL normalization.
func (r Rewriting) Get(url string) (httpsim.Object, bool) {
	return r.Store.Get(RewriteURL(url))
}

// --- disk container ----------------------------------------------------------

type diskObject struct {
	URL         string `json:"url"`
	ContentType string `json:"content_type"`
	Status      int    `json:"status,omitempty"`
	Body        string `json:"body"` // base64
	// Validator preserves a recorded origin's content validator (ETag).
	// Omitted for archives whose validator is derived from the body.
	Validator string `json:"validator,omitempty"`
}

type diskArchive struct {
	Format  int          `json:"format"`
	Objects []diskObject `json:"objects"`
}

const diskFormat = 1

// Save writes the archive to path as a JSON container.
func (a *Archive) Save(path string) error {
	a.mu.RLock()
	disk := diskArchive{Format: diskFormat}
	for _, u := range a.urlsLocked() {
		o := a.objects[u]
		disk.Objects = append(disk.Objects, diskObject{
			URL: o.URL, ContentType: o.ContentType, Status: o.Status,
			Body:      base64.StdEncoding.EncodeToString(o.Body),
			Validator: o.Validator,
		})
	}
	a.mu.RUnlock()
	data, err := json.Marshal(disk)
	if err != nil {
		return fmt.Errorf("replay: marshal archive: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

func (a *Archive) urlsLocked() []string {
	out := make([]string, 0, len(a.objects))
	for u := range a.objects {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// Load reads an archive previously written by Save.
func Load(path string) (*Archive, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var disk diskArchive
	if err := json.Unmarshal(data, &disk); err != nil {
		return nil, fmt.Errorf("replay: parse archive %s: %w", path, err)
	}
	if disk.Format != diskFormat {
		return nil, fmt.Errorf("replay: unsupported archive format %d", disk.Format)
	}
	a := NewArchive()
	for _, d := range disk.Objects {
		body, err := base64.StdEncoding.DecodeString(d.Body)
		if err != nil {
			return nil, fmt.Errorf("replay: body of %s: %w", d.URL, err)
		}
		if !strings.HasPrefix(d.URL, "http://") {
			return nil, fmt.Errorf("replay: non-absolute URL %q in archive", d.URL)
		}
		a.Record(httpsim.Object{URL: d.URL, ContentType: d.ContentType, Status: d.Status, Body: body, Validator: d.Validator})
	}
	return a, nil
}

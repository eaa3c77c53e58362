// Package objcache is the proxy's cross-session object cache: fetched origin
// objects keyed by canonical URL, validated by an origin validator, shared by
// every session of a multi-tenant proxy (both parcelnet's TCP proxy and the
// simulated core.Proxy).
//
// It extends the pure-function-of-key invariant of internal/browser's
// artifact cache to origin payloads: for one (canonical URL, validator) pair
// the cache never yields two different bodies — the first insert of a
// generation wins, and a new validator replaces the whole entry. Lookups are
// sharded across segments, each with its own lock, byte budget, and intrusive
// LRU list; recency is a per-segment access counter, never a wall clock, so
// the package stays sim-deterministic (parcel-vet enforces this) and a
// virtual-time fleet simulation using it reproduces bit-identically.
//
// Begin and Flight.Settle add single-flight de-duplication: concurrent
// sessions missing on the same URL share one origin fetch instead of
// stampeding the origin.
package objcache

import (
	"hash/fnv"
	"strings"
	"sync"
	"time"
)

// Object is one cached origin object. Body is immutable by contract: callers
// on both sides of the cache must never mutate it after Put/Get.
type Object struct {
	URL         string
	ContentType string
	Status      int
	// Validator is the origin's freshness token (ETag or a content digest).
	// Two objects under one URL with equal validators must be byte-identical;
	// a differing validator starts a new generation.
	Validator string
	Body      []byte
}

// Config sizes a Cache.
type Config struct {
	// Capacity is the total byte budget across all segments (bodies only).
	// Objects larger than one segment's share are never admitted.
	Capacity int64
	// Segments is the lock-sharding width (default 8, rounded up to one).
	Segments int
	// FreshFor is how long a stored entry counts as fresh before lookups must
	// revalidate at the origin. Zero (the default) means entries never go
	// stale.
	FreshFor time.Duration
	// NegTTL is how long a hard origin failure is negatively cached (serve
	// stale / fail fast without re-contacting the origin). Zero disables
	// negative caching.
	NegTTL time.Duration
}

// Stats is a point-in-time aggregate across segments.
type Stats struct {
	Hits        int64 // lookups served from a fresh resident entry
	Misses      int64 // lookups that found nothing resident
	Evictions   int64 // entries removed under byte pressure
	Shared      int64 // callers that joined another caller's in-flight fetch
	StaleServes int64 // stale bodies served because the origin was failing
	NegHits     int64 // lookups answered inside a negative-cache window
	Entries     int   // resident objects
	Bytes       int64 // resident body bytes
	Capacity    int64 // configured budget
}

// Cache is a segmented, size-bounded, single-flight object cache. All methods
// are safe for concurrent use.
type Cache struct {
	segs []segment
}

// entry is one resident object on a segment's intrusive LRU list.
type entry struct {
	obj Object
	// storedAt is the caller-supplied time the entry was (re)stored; with a
	// FreshFor window it bounds freshness. stale forces revalidation early.
	storedAt   time.Duration
	stale      bool
	prev, next *entry
}

type segment struct {
	mu       sync.Mutex
	cap      int64
	freshFor time.Duration
	negTTL   time.Duration
	bytes    int64
	entries  map[string]*entry
	flights  map[string]*Flight
	// neg maps key -> end of its negative-cache window.
	neg         map[string]time.Duration
	lru         list
	hits        int64
	misses      int64
	evicted     int64
	shared      int64
	staleServes int64
	negHits     int64
}

// New builds a cache with the given budget. A zero or negative capacity
// returns a cache that admits nothing (all lookups miss), which keeps caller
// code branch-free when caching is disabled by configuration.
func New(cfg Config) *Cache {
	if cfg.Segments <= 0 {
		cfg.Segments = 8
	}
	c := &Cache{segs: make([]segment, cfg.Segments)}
	per := cfg.Capacity / int64(cfg.Segments)
	for i := range c.segs {
		c.segs[i].cap = per
		c.segs[i].freshFor = cfg.FreshFor
		c.segs[i].negTTL = cfg.NegTTL
		c.segs[i].entries = make(map[string]*entry)
		c.segs[i].flights = make(map[string]*Flight)
		c.segs[i].neg = make(map[string]time.Duration)
	}
	return c
}

// Key canonicalizes a logical URL into the cache key: scheme and host are
// case-insensitive, the fragment never reaches the origin, and a default :80
// port is redundant. Purity of the cache is defined over this key.
func Key(url string) string {
	if i := strings.IndexByte(url, '#'); i >= 0 {
		url = url[:i]
	}
	rest := url
	scheme := ""
	if i := strings.Index(rest, "://"); i >= 0 {
		scheme = strings.ToLower(rest[:i+3])
		rest = rest[i+3:]
	}
	hostEnd := len(rest)
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		hostEnd = i
	}
	host := strings.ToLower(rest[:hostEnd])
	host = strings.TrimSuffix(host, ":80")
	if host == rest[:hostEnd] && scheme == url[:len(scheme)] {
		return url // already canonical: no copy
	}
	return scheme + host + rest[hostEnd:]
}

func (c *Cache) segFor(key string) *segment {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.segs[h.Sum32()%uint32(len(c.segs))]
}

// Get, Put and GetOrFetch are the clock-free spelling of ProbeAt, PutAt and
// GetOrFetchStale for callers with no notion of time: every store and lookup
// happens at now = 0, so entries never age out of their freshness window.

// Get returns the resident object for url, if any, refreshing its recency.
func (c *Cache) Get(url string) (Object, bool) {
	obj, lk := c.ProbeAt(url, 0)
	if lk != LookupFresh {
		return Object{}, false
	}
	return obj, true
}

// Put inserts obj (canonicalizing its URL) unless an entry with the same
// validator is already resident — the first insert of a generation wins, so a
// key never yields two different payloads. A new validator replaces the
// entry. Error statuses (>= 400) and objects larger than a segment's budget
// are not admitted.
func (c *Cache) Put(obj Object) { c.PutAt(obj, 0) }

// GetOrFetch returns the object for url, fetching it at most once across
// concurrent callers: a miss either starts the origin fetch or joins the one
// already in flight for the same key. hit reports whether the object was
// resident (joining a flight is not a hit here — the origin was still
// contacted once on the caller group's behalf).
func (c *Cache) GetOrFetch(url string, fetch func() (Object, error)) (obj Object, hit bool, err error) {
	obj, out, err := c.GetOrFetchStale(url, 0, fetch)
	return obj, out == OutcomeHit, err
}

// putAtLocked stores obj as of now, with the segment lock held. A rejected
// store (error status or oversize) touches nothing — in particular it does
// not refresh whatever older entry is resident. An admitted one clears the
// key's negative-cache window and stale mark: the origin just proved itself
// healthy.
func (s *segment) putAtLocked(key string, obj Object, now time.Duration) {
	if obj.Status >= 400 || int64(len(obj.Body)) > s.cap {
		return
	}
	delete(s.neg, key)
	if e, ok := s.entries[key]; ok {
		if e.obj.Validator == obj.Validator {
			// Same generation: keep the first body (purity), refresh recency
			// and freshness.
			s.lru.moveToFront(e)
			e.storedAt, e.stale = now, false
			return
		}
		s.bytes -= int64(len(e.obj.Body))
		s.lru.remove(e)
		delete(s.entries, key)
	}
	e := &entry{obj: obj, storedAt: now}
	e.obj.URL = key
	s.entries[key] = e
	s.lru.pushFront(e)
	s.bytes += int64(len(obj.Body))
	for s.bytes > s.cap {
		tail := s.lru.back()
		if tail == nil || tail == e {
			break
		}
		s.bytes -= int64(len(tail.obj.Body))
		s.lru.remove(tail)
		delete(s.entries, tail.obj.URL)
		s.evicted++
	}
	checkAccounting(s)
}

// Stats aggregates the segment counters.
func (c *Cache) Stats() Stats {
	var st Stats
	for i := range c.segs {
		s := &c.segs[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evicted
		st.Shared += s.shared
		st.StaleServes += s.staleServes
		st.NegHits += s.negHits
		st.Entries += len(s.entries)
		st.Bytes += s.bytes
		st.Capacity += s.cap
		s.mu.Unlock()
	}
	return st
}

// Bytes returns the resident body bytes across segments.
func (c *Cache) Bytes() int64 {
	var n int64
	for i := range c.segs {
		s := &c.segs[i]
		s.mu.Lock()
		n += s.bytes
		s.mu.Unlock()
	}
	return n
}

// Len returns the number of resident objects.
func (c *Cache) Len() int {
	n := 0
	for i := range c.segs {
		s := &c.segs[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// list is an intrusive doubly-linked LRU list: front = most recent. Recency
// is list position, maintained on access — no clocks, no counters that could
// overflow, nothing nondeterministic.
type list struct {
	head, tail *entry
}

func (l *list) pushFront(e *entry) {
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

func (l *list) remove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (l *list) moveToFront(e *entry) {
	if l.head == e {
		return
	}
	l.remove(e)
	l.pushFront(e)
}

func (l *list) back() *entry { return l.tail }

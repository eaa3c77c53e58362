package objcache

import (
	"errors"
	"time"
)

// This file is the cache's lookup, store and single-flight implementation,
// with its origin-resilience surface: freshness windows, serve-stale-on-error,
// and brief negative caching of hard failures. Like the rest of the package
// it is clock-free — every API takes the caller's notion of now (virtual time
// on the simulation arm, wall-clock offset on the real arm), so the fleet
// simulation reproduces bit-identically. With FreshFor == 0 entries never go
// stale, and with NegTTL == 0 no failure is remembered.

// ErrNegativeCached reports that a lookup was refused because the URL's
// recent hard failure is still negatively cached and no stale body is
// resident to serve in its place.
var ErrNegativeCached = errors.New("objcache: negatively cached origin failure")

// Lookup classifies a ProbeAt result.
type Lookup int

const (
	// LookupMiss means nothing is resident.
	LookupMiss Lookup = iota
	// LookupFresh means a resident entry inside its freshness window.
	LookupFresh
	// LookupStale means a resident entry past its freshness window (or
	// explicitly marked stale): usable for serve-stale, due revalidation.
	LookupStale
)

// Outcome classifies how GetOrFetchStale satisfied a request.
type Outcome int

const (
	// OutcomeHit served a fresh resident entry.
	OutcomeHit Outcome = iota
	// OutcomeFetched contacted the origin (or joined a flight that did) and
	// got a response.
	OutcomeFetched
	// OutcomeStale served a resident-but-stale entry because the origin
	// failed past its retry budget or the failure is negatively cached.
	OutcomeStale
	// OutcomeFailed means the origin failed and nothing stale was resident;
	// the error is returned.
	OutcomeFailed
)

func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeFetched:
		return "fetched"
	case OutcomeStale:
		return "stale"
	case OutcomeFailed:
		return "failed"
	}
	return "unknown"
}

// fresh reports whether e is inside its freshness window at now.
func (s *segment) fresh(e *entry, now time.Duration) bool {
	if e.stale {
		return false
	}
	return s.freshFor == 0 || now-e.storedAt < s.freshFor
}

// PutAt stores obj as of now: the entry is fresh until now+FreshFor (forever
// when FreshFor is 0). See Put for the admission and generation rules.
func (c *Cache) PutAt(obj Object, now time.Duration) {
	key := Key(obj.URL)
	s := c.segFor(key)
	s.mu.Lock()
	s.putAtLocked(key, obj, now)
	s.mu.Unlock()
}

// ProbeAt classifies what the cache holds for url at now, refreshing recency
// on a fresh hit (a stale probe is not an access — the caller decides whether
// the entry is ultimately served).
func (c *Cache) ProbeAt(url string, now time.Duration) (Object, Lookup) {
	key := Key(url)
	s := c.segFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		s.misses++
		return Object{}, LookupMiss
	}
	if s.fresh(e, now) {
		s.hits++
		s.lru.moveToFront(e)
		return e.obj, LookupFresh
	}
	return e.obj, LookupStale
}

// MarkStale forces url's resident entry (if any) out of its freshness window
// so the next lookup revalidates at the origin.
func (c *Cache) MarkStale(url string) {
	key := Key(url)
	s := c.segFor(key)
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		e.stale = true
	}
	s.mu.Unlock()
}

// NoteFailure negatively caches a hard origin failure for url: until
// now+NegTTL, callers should serve stale (or fail fast) instead of
// re-contacting the origin — the lid on retry storms. A zero NegTTL disables
// negative caching.
func (c *Cache) NoteFailure(url string, now time.Duration) {
	key := Key(url)
	s := c.segFor(key)
	if s.negTTL == 0 {
		return
	}
	s.mu.Lock()
	s.neg[key] = now + s.negTTL
	s.mu.Unlock()
}

// NegativeActive reports whether url's negative-cache window covers now.
func (c *Cache) NegativeActive(url string, now time.Duration) bool {
	key := Key(url)
	s := c.segFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	until, ok := s.neg[key]
	if !ok {
		return false
	}
	if now >= until {
		delete(s.neg, key)
		return false
	}
	s.negHits++
	return true
}

// ServeStale returns url's resident entry regardless of freshness, counting
// a stale serve. The caller has decided the origin cannot be (re)contacted.
func (c *Cache) ServeStale(url string) (Object, bool) {
	key := Key(url)
	s := c.segFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return Object{}, false
	}
	s.staleServes++
	s.lru.moveToFront(e)
	return e.obj, true
}

// GetOrFetchStale is the blocking single-flight lookup, with freshness,
// serve-stale-on-error, and negative caching:
//
//   - a fresh resident entry is a hit;
//   - a negatively cached failure serves the stale body if one is resident,
//     else fails fast with ErrNegativeCached — the origin is not contacted;
//   - otherwise the origin is fetched (single-flight across callers; a stale
//     resident entry stays served to nobody while exactly one caller
//     revalidates);
//   - on fetch success the entry is stored fresh at now;
//   - on fetch failure the failure is negatively cached and the stale body is
//     served if resident, else the error surfaces.
func (c *Cache) GetOrFetchStale(url string, now time.Duration, fetch func() (Object, error)) (Object, Outcome, error) {
	key := Key(url)
	s := c.segFor(key)
	s.mu.Lock()
	if e, ok := s.entries[key]; ok && s.fresh(e, now) {
		s.hits++
		s.lru.moveToFront(e)
		obj := e.obj
		s.mu.Unlock()
		return obj, OutcomeHit, nil
	}
	if until, ok := s.neg[key]; ok && now < until {
		s.negHits++
		if e, ok := s.entries[key]; ok {
			s.staleServes++
			s.lru.moveToFront(e)
			obj := e.obj
			s.mu.Unlock()
			return obj, OutcomeStale, nil
		}
		s.misses++
		s.mu.Unlock()
		return Object{}, OutcomeFailed, ErrNegativeCached
	}
	s.misses++
	if f, ok := s.flights[key]; ok {
		s.shared++
		s.mu.Unlock()
		<-f.done
		if f.err == nil {
			return f.obj, OutcomeFetched, nil
		}
		return c.staleOrFail(s, key, f.err)
	}
	f := s.openFlightLocked(key)
	s.mu.Unlock()

	defer s.settleFlightOnPanic(f)
	f.obj, f.err = fetch()
	if f.err == nil {
		s.mu.Lock()
		s.putAtLocked(key, f.obj, now)
		s.mu.Unlock()
		s.settleFlight(f)
		return f.obj, OutcomeFetched, nil
	}
	s.mu.Lock()
	if s.negTTL > 0 {
		s.neg[key] = now + s.negTTL
	}
	s.mu.Unlock()
	s.settleFlight(f)
	return c.staleOrFail(s, key, f.err)
}

// staleOrFail resolves a failed fetch: the stale resident body when there is
// one, the fetch error otherwise.
func (c *Cache) staleOrFail(s *segment, key string, fetchErr error) (Object, Outcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		s.staleServes++
		s.lru.moveToFront(e)
		return e.obj, OutcomeStale, nil
	}
	return Object{}, OutcomeFailed, fetchErr
}

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

// Outcome classifies how a fetch was satisfied.
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
	// OutcomePending is Begin's answer while a flight is open: the resolution
	// arrives through the continuation.
	OutcomePending
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
	case OutcomePending:
		return "pending"
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

// Result is how one fetch of a URL resolved: Outcome says from where, Obj is
// the object unless Outcome is OutcomeFailed, and Err is set only then.
type Result struct {
	Obj     Object
	Outcome Outcome
	Err     error
}

// Flight is the handle Begin gives the one caller that must fetch a URL from
// the origin on behalf of every caller waiting for it. Every path out of that
// caller must Settle the flight — including a panicking fetch — or all future
// fetches of the key join a flight that never lands.
type Flight struct {
	s   *segment
	key string
	// waiters are the continuations Settle runs: the leader's first, then the
	// joiners' in join order. Guarded by s.mu until the flight is settled.
	waiters []func(Result)
	// settled is leader-only state, read by the panic safety net.
	settled bool
}

// errFetchPanicked is the error joiners observe when the leader's fetch
// function panicked instead of returning.
var errFetchPanicked = errors.New("objcache: fetch panicked")

// Begin is the non-blocking half of the fetch procedure. It decides at now how
// a fetch of url proceeds, in this order:
//
//   - a fresh resident entry is a hit;
//   - inside the key's negative-cache window the stale body is served if one is
//     resident, else the fetch is refused with ErrNegativeCached — the origin is
//     not contacted;
//   - if a flight for the key is open, wake joins it;
//   - otherwise the caller leads: a flight opens with wake as its first waiter
//     and Begin returns its handle. The leader fetches from the origin (a stale
//     resident entry stays served to nobody meanwhile) and hands the outcome to
//     Flight.Settle.
//
// In the last two cases the Result is OutcomePending and wake receives the
// resolution from Settle; wake is never called for a Result Begin returns
// itself.
//
//parcelvet:acquire flight
func (c *Cache) Begin(url string, now time.Duration, wake func(Result)) (Result, *Flight) {
	key := Key(url)
	s := c.segFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, resident := s.entries[key]
	if resident && s.fresh(e, now) {
		s.hits++
		s.lru.moveToFront(e)
		return Result{Obj: e.obj, Outcome: OutcomeHit}, nil
	}
	if until, ok := s.neg[key]; ok && now < until {
		s.negHits++
		if !resident {
			s.misses++
		}
		return s.staleOrFailLocked(key, ErrNegativeCached, 1), nil
	}
	s.misses++
	if f, ok := s.flights[key]; ok {
		s.shared++
		f.waiters = append(f.waiters, wake)
		return Result{Outcome: OutcomePending}, nil
	}
	f := &Flight{s: s, key: key, waiters: []func(Result){wake}}
	s.flights[key] = f
	return Result{Outcome: OutcomePending}, f
}

// Settle publishes the leader's fetch outcome as of now. A success is stored
// fresh; a failure opens the key's negative-cache window and resolves to the
// stale resident body when there is one, to fetchErr otherwise. The slot is
// removed so later callers start a new flight, then every waiter runs with the
// one resolution — leader first, joiners in join order — with the segment
// unlocked.
//
//parcelvet:release flight
func (f *Flight) Settle(obj Object, fetchErr error, now time.Duration) {
	s := f.s
	s.mu.Lock()
	res := Result{Obj: obj, Outcome: OutcomeFetched}
	if fetchErr == nil {
		s.putAtLocked(f.key, obj, now)
	} else {
		if s.negTTL > 0 {
			s.neg[f.key] = now + s.negTTL
		}
		res = s.staleOrFailLocked(f.key, fetchErr, len(f.waiters))
	}
	delete(s.flights, f.key)
	f.settled = true
	s.mu.Unlock()
	for _, wake := range f.waiters {
		wake(res)
	}
}

// settleOnPanic is the leader's deferred safety net around a blocking fetch:
// if the fetch panicked, the flight is settled as failed before the panic
// unwinds, so joiners fail instead of hanging. No-op after a normal Settle.
//
//parcelvet:release flight
func (f *Flight) settleOnPanic(now time.Duration) {
	if !f.settled {
		f.Settle(Object{}, errFetchPanicked, now)
	}
}

// staleOrFailLocked resolves a fetch the origin cannot answer, for n callers
// at once: the stale resident body when there is one, fetchErr otherwise.
// Called with the segment lock held.
func (s *segment) staleOrFailLocked(key string, fetchErr error, n int) Result {
	e, ok := s.entries[key]
	if !ok {
		return Result{Outcome: OutcomeFailed, Err: fetchErr}
	}
	s.staleServes += int64(n)
	s.lru.moveToFront(e)
	return Result{Obj: e.obj, Outcome: OutcomeStale}
}

// GetOrFetchStale is Begin and Settle for callers that can block: the leader
// runs fetch and settles with what it returned, a joiner waits for the
// leader, and everyone returns the one resolution.
func (c *Cache) GetOrFetchStale(url string, now time.Duration, fetch func() (Object, error)) (Object, Outcome, error) {
	var woken Result
	done := make(chan struct{})
	res, f := c.Begin(url, now, func(r Result) {
		woken = r
		close(done)
	})
	if f != nil {
		defer f.settleOnPanic(now)
		obj, err := fetch()
		f.Settle(obj, err, now)
	}
	if res.Outcome == OutcomePending {
		<-done
		res = woken
	}
	return res.Obj, res.Outcome, res.Err
}

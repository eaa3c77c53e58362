package core

import (
	"time"

	"github.com/parcel-go/parcel/internal/browser"
	"github.com/parcel-go/parcel/internal/eventsim"
	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/objcache"
	"github.com/parcel-go/parcel/internal/resilience"
	"github.com/parcel-go/parcel/internal/sched"
)

// This file is the retry discipline behind proxyFetcher.Fetch, the
// virtual-clock twin of parcelnet's resilientFetcher: per-attempt deadlines, a
// jittered-backoff retry budget, a per-origin circuit breaker, and — with the
// shared cache — serve-stale-on-error and negative caching. With a nil
// ProxyConfig.Resilience the first attempt's answer is final whatever its
// status, so none of the failure machinery below is reachable; the retry
// backoff draws the simulator RNG only after a failure, so fault-free runs
// consume exactly the same RNG stream with or without a policy.

// originAttempt tracks one origin fetch across its retries. gen invalidates
// the straggler callbacks of an abandoned attempt: the deadline and the
// origin response race, and whichever resolves the attempt first bumps gen so
// the loser finds itself stale and returns.
type originAttempt struct {
	f   *proxyFetcher
	url string
	cb  func(browser.Result)
	br  *resilience.Breaker // nil without a policy

	attempt  int // attempts issued so far (1-based once running)
	gen      int
	deadline *eventsim.Event
}

// failWithoutOrigin resolves a fetch that must not touch the origin (open
// breaker or active negative cache): the stale resident body when there is
// one, else a degraded 502 delivered synchronously like the HTTPS skip.
func (f *proxyFetcher) failWithoutOrigin(url string, cb func(browser.Result)) {
	p := f.s.proxy
	sim := p.topo.Sim
	if c := p.cfg.Cache; c != nil {
		if obj, ok := c.ServeStale(url); ok {
			f.s.CacheHits++
			f.s.StaleServes++
			sim.ScheduleArgAt(sim.Now(), deliverCachedObject, &cachedDelivery{s: f.s, obj: obj, cb: cb})
			return
		}
		f.s.CacheMisses++
	}
	cb(browser.Result{URL: url, Status: 502, At: sim.Now()})
}

// issueAttempt sends one origin request with a deadline racing it.
func (f *proxyFetcher) issueAttempt(a *originAttempt) {
	p := f.s.proxy
	sim := p.topo.Sim
	a.attempt++
	a.gen++
	gen := a.gen
	if pol := p.cfg.Resilience; pol != nil && pol.Timeout > 0 {
		//parcelvet:allow pooldiscipline(Event handles are arena-backed and valid for the simulator's lifetime; the field only holds the handle so the response can Cancel its deadline)
		a.deadline = sim.ScheduleArgAt(sim.Now()+pol.Timeout, originAttemptDeadline, a)
	}
	f.client.Do(httpsim.Request{Method: "GET", URL: a.url}, func(resp httpsim.Response, at time.Duration) {
		f.attemptResponded(a, gen, resp, at)
	})
}

// attemptResponded resolves an attempt with the origin's answer — unless the
// deadline got there first, in which case the response is a straggler.
func (f *proxyFetcher) attemptResponded(a *originAttempt, gen int, resp httpsim.Response, at time.Duration) {
	if gen != a.gen {
		return
	}
	if a.deadline != nil {
		a.deadline.Cancel()
		a.deadline = nil
	}
	now := f.s.proxy.topo.Sim.Now()
	switch {
	case a.br == nil:
		// No policy: the origin's answer is the object, whatever its status.
	case resp.Status >= 500:
		a.br.Failure(now)
		f.attemptFailed(a, resp)
		return
	default:
		a.br.Success(now)
	}
	f.finishSuccess(a, resp, at)
}

// originAttemptDeadline fires when an attempt's per-request deadline passes
// before its response: the attempt is charged as a failure and the pending
// response invalidated (the noclosure ScheduleArgAt idiom: package-level
// func + typed argument).
func originAttemptDeadline(arg any) {
	a := arg.(*originAttempt)
	a.deadline = nil
	a.gen++
	f := a.f
	now := f.s.proxy.topo.Sim.Now()
	a.br.Failure(now)
	f.attemptFailed(a, httpsim.Response{URL: a.url, Status: 504})
}

// attemptFailed routes a failed attempt: retry after jittered backoff while
// budget remains, else resolve terminally. The backoff draw is the only RNG
// this file consumes, and it happens strictly after a failure.
func (f *proxyFetcher) attemptFailed(a *originAttempt, resp httpsim.Response) {
	p := f.s.proxy
	sim := p.topo.Sim
	pol := p.cfg.Resilience
	if a.attempt > pol.MaxRetries {
		f.finishFailure(a, resp)
		return
	}
	delay := pol.Backoff(a.attempt, sim.Rand())
	sim.ScheduleArgAt(sim.Now()+delay, retryOriginAttempt, a)
}

// retryOriginAttempt re-issues a fetch after its backoff — unless the breaker
// opened in the meantime (our own failures, or other sessions failing on the
// same origin), in which case it resolves terminally without dialing.
func retryOriginAttempt(arg any) {
	a := arg.(*originAttempt)
	f := a.f
	now := f.s.proxy.topo.Sim.Now()
	if !a.br.Allow(now) {
		f.s.BreakerFastFails++
		f.finishFailure(a, httpsim.Response{URL: a.url, Status: 503})
		return
	}
	f.s.OriginRetries++
	f.issueAttempt(a)
}

// finishSuccess publishes a response: cache, driving session, then every
// flight joiner in join order (deterministic: appends follow event order).
func (f *proxyFetcher) finishSuccess(a *originAttempt, resp httpsim.Response, at time.Duration) {
	p := f.s.proxy
	fl := f.resolveFlight(a.url)
	f.s.OriginBytes += int64(len(resp.Body))
	if c := p.cfg.Cache; c != nil {
		c.PutAt(objcache.Object{
			URL: resp.URL, ContentType: resp.ContentType, Status: resp.Status,
			Validator: resp.ETag(), Body: resp.Body,
		}, p.topo.Sim.Now())
	}
	it := sched.Item{
		URL: resp.URL, ContentType: resp.ContentType, Status: resp.Status,
		Body: resp.Body, ArrivedAt: at,
	}
	f.s.collect(it)
	a.cb(resultFromItem(it, at))
	if fl != nil {
		for _, w := range fl.waiters {
			w.s.collect(it)
			w.cb(resultFromItem(it, at))
		}
	}
}

// finishFailure resolves a fetch whose retry budget is spent: negatively
// cache the failure, then serve the stale resident body to the driving
// session and every joiner, or surface the failure status when nothing is
// resident (a degraded object, not a hung page).
func (f *proxyFetcher) finishFailure(a *originAttempt, resp httpsim.Response) {
	p := f.s.proxy
	sim := p.topo.Sim
	now := sim.Now()
	fl := f.resolveFlight(a.url)
	c := p.cfg.Cache
	if c != nil {
		c.NoteFailure(a.url, now)
		if obj, ok := c.ServeStale(a.url); ok {
			f.s.StaleServes++
			it := sched.Item{
				URL: obj.URL, ContentType: obj.ContentType, Status: obj.Status,
				Body: obj.Body, ArrivedAt: now,
			}
			f.s.collect(it)
			a.cb(resultFromItem(it, now))
			if fl != nil {
				for _, w := range fl.waiters {
					w.s.StaleServes++
					w.s.collect(it)
					w.cb(resultFromItem(it, now))
				}
			}
			return
		}
	}
	status := resp.Status
	if status < 500 {
		status = 502
	}
	a.cb(browser.Result{URL: a.url, Status: status, At: now})
	if fl != nil {
		for _, w := range fl.waiters {
			w.cb(browser.Result{URL: a.url, Status: status, At: now})
		}
	}
}

// resolveFlight detaches and returns the in-progress flight for url (nil
// without the shared cache).
func (f *proxyFetcher) resolveFlight(url string) *simFlight {
	p := f.s.proxy
	if p.cfg.Cache == nil {
		return nil
	}
	fl := p.flights[url]
	delete(p.flights, url)
	return fl
}

package core

import (
	"errors"
	"time"

	"github.com/parcel-go/parcel/internal/browser"
	"github.com/parcel-go/parcel/internal/eventsim"
	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/objcache"
	"github.com/parcel-go/parcel/internal/resilience"
	"github.com/parcel-go/parcel/internal/sched"
)

// This file is the virtual-clock driver of the origin-fetch procedure, the
// twin of parcelnet's blocking resilientFetcher.do + GetOrFetchStale. What the
// procedure decides lives elsewhere: objcache.Begin / Flight.Settle own fresh /
// negative / join / lead / stale-or-fail, resilience.Attempt owns attempt /
// retry / breaker. Here are only the event loop's hands: an Issue is an
// httpsim request raced by a scheduled deadline, a Wait is a scheduled event,
// and the resolution goes to the fetch's continuation. The backoff draw is the
// only RNG the procedure consumes and it happens strictly after a failure, so
// fault-free runs leave the simulator's RNG stream untouched.

// errOriginFailed settles a fetch whose retry budget is spent.
var errOriginFailed = errors.New("core: origin failed past the retry budget")

// originFetch is one run of the procedure for one session.
type originFetch struct {
	f   *proxyFetcher
	url string
	// done is the fetch's continuation: it receives the resolved object, or
	// with ok false a bodiless 502 when the origin failed and nothing stale
	// was resident. cb is the engine's callback, for done == toEngine.
	done func(of *originFetch, it sched.Item, ok bool)
	cb   func(browser.Result)

	// flight is set when this fetch leads the shared cache's flight for url.
	flight *objcache.Flight
	try    resilience.Attempt
	// gen invalidates the loser of the race between an attempt's response and
	// its deadline: whichever resolves the attempt first bumps it.
	gen      int
	deadline eventsim.Timer
	// early is a resolution Begin returned itself, awaiting delivery.
	early objcache.Result
}

// fetch runs the procedure for url and hands the outcome to done: shared
// cache first (fresh hit, negative-cache answer, or join of the flight already
// open), then, as the flight's leader, the origin under the retry discipline.
// Without a cache the cache steps are skipped, not replaced.
func (f *proxyFetcher) fetch(url string, done func(*originFetch, sched.Item, bool), cb func(browser.Result)) {
	p := f.s.proxy
	sim := p.topo.Sim
	of := &originFetch{f: f, url: url, done: done, cb: cb}
	if c := p.cfg.Cache; c != nil {
		res, fl := c.Begin(url, sim.Now(), of.resolved)
		if fl == nil {
			if res.Outcome != objcache.OutcomePending {
				// Deliver asynchronously at proxy-local time: the engine's fetch
				// contract is callback-after-return, and an answer from the
				// cache skips the proxy↔origin round trip entirely.
				of.early = res
				sim.ScheduleArgAt(sim.Now(), deliverEarly, of)
			}
			return
		}
		of.flight = fl
	}
	domain, _ := httpsim.SplitURL(url)
	of.try = p.resil.Attempt(domain)
	of.step(of.try.Start(sim.Now()))
}

// deliverEarly, originDeadline and originBackoffElapsed are the procedure's
// scheduled continuations (the noclosure ScheduleArgAt idiom: package-level
// func + typed argument, no capture).
func deliverEarly(arg any) {
	of := arg.(*originFetch)
	of.resolved(of.early)
}

func originDeadline(arg any) {
	of := arg.(*originFetch)
	of.gen++ // the pending response is a straggler now
	sim := of.f.s.proxy.topo.Sim
	of.step(of.try.TimedOut(sim.Now(), sim.Rand()))
}

func originBackoffElapsed(arg any) {
	of := arg.(*originFetch)
	of.step(of.try.Start(of.f.s.proxy.topo.Sim.Now()))
}

// step carries out one instruction of the attempt stepper.
func (of *originFetch) step(st resilience.Step) {
	s := of.f.s
	sim := s.proxy.topo.Sim
	switch st.Action {
	case resilience.Issue:
		if of.try.Issued() > 1 {
			s.page.OriginRetries++
		}
		of.gen++
		gen := of.gen
		of.deadline = sim.ScheduleArgAt(sim.Now()+st.After, originDeadline, of)
		of.f.client.Do(httpsim.Request{Method: "GET", URL: of.url}, func(resp httpsim.Response, _ time.Duration) {
			of.responded(gen, resp)
		})
	case resilience.Wait:
		sim.ScheduleArgAt(sim.Now()+st.After, originBackoffElapsed, of)
	case resilience.Refused:
		s.BreakerFastFails++
		of.settle(httpsim.Response{}, resilience.ErrOpen)
	case resilience.Failed:
		of.settle(httpsim.Response{}, errOriginFailed)
	}
}

// responded reports an attempt's answer to the stepper — unless the deadline
// got there first, in which case the response is a straggler.
func (of *originFetch) responded(gen int, resp httpsim.Response) {
	if gen != of.gen {
		return
	}
	of.deadline.Cancel()
	sim := of.f.s.proxy.topo.Sim
	if st := of.try.Responded(sim.Now(), resp.Status, nil, sim.Rand()); st.Action != resilience.Done {
		of.step(st)
		return
	}
	of.f.s.page.OriginBytes += int64(len(resp.Body))
	of.settle(resp, nil)
}

// settle ends the origin leg with the origin's answer or the reason there is
// none. The flight's leader hands it to the cache, which stores or negatively
// caches it, resolves stale-or-fail, and resolves this fetch and every joiner.
func (of *originFetch) settle(resp httpsim.Response, err error) {
	res := objcache.Result{Outcome: objcache.OutcomeFailed, Err: err}
	if err == nil {
		res = objcache.Result{Outcome: objcache.OutcomeFetched, Obj: objcache.Object{
			URL: resp.URL, ContentType: resp.ContentType, Status: resp.Status, Body: resp.Body,
		}}
	}
	if of.flight == nil {
		of.resolved(res)
		return
	}
	if err == nil {
		res.Obj.Validator = resp.ETag()
	}
	of.flight.Settle(res.Obj, err, of.f.s.proxy.topo.Sim.Now())
}

// resolved is the procedure's one exit — leader, joiner, cache answer and
// cacheless fetch alike: book the session's accounting, then run the
// continuation.
func (of *originFetch) resolved(res objcache.Result) {
	s := of.f.s
	now := s.proxy.topo.Sim.Now()
	ok := res.Outcome != objcache.OutcomeFailed
	if s.proxy.cfg.Cache != nil {
		// Only the flight's leader, and only on the origin's own answer, paid.
		paid := of.flight != nil && res.Outcome == objcache.OutcomeFetched
		s.page.Fetch(ok, paid, res.Outcome == objcache.OutcomeStale)
	}
	it := sched.Item{URL: of.url, Status: 502, ArrivedAt: now}
	if ok {
		o := res.Obj
		it = sched.Item{URL: o.URL, ContentType: o.ContentType, Status: o.Status, Body: o.Body, ArrivedAt: now}
	}
	of.done(of, it, ok)
}

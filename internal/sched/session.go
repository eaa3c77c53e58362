package sched

import "strings"

// Session is the proxy's page-session policy (§4.4–§4.5), written once for
// both arms: withhold what the client already holds, release the rest by
// schedule, re-arm a quiet window on every post-onload arrival, declare the
// page complete once, and push whatever arrives later individually. It has no
// clock, conn, lock or goroutine: a driver (core.ProxySession on the event
// loop, parcelnet.session under its mutex) feeds it inputs, receives releases
// through flush — synchronously, before the input returns — and then carries
// out the returned Step. A driver that can prove the window will elapse with
// nothing new (parcelnet's crawl) says so with Quiescent instead of waiting.
type Session struct {
	// Counts is booked by the Session (releases, mirror skips) and by the
	// driver (Fetch, OriginBytes, OriginRetries, as its fetches resolve).
	Counts

	flush func(items []Item, reason FlushReason)
	// b is the current page's schedule; its onloadSeen is the session's.
	b *Bundler
	// sent mirrors the client's store: the StartPage manifests plus every
	// release. It outlives the page, so a revisit pushes only new content.
	sent         map[string]bool
	completeSent bool
	// quietGen is the last quiet window handed out; QuietFired ignores any
	// other, so a timer that lost the race with its successor is inert.
	quietGen int
}

// Counts is one session's accounting, as both arms' completion notes carry it.
type Counts struct {
	// Releases, and the collected objects the mirror withheld: together,
	// every collected object.
	ObjectsPushed int
	BytesPushed   int64
	Skipped       int
	// The session's fetches split by the Fetch rule; StaleServes tags the
	// hits that were a degraded (stale) answer.
	CacheHits   int
	CacheMisses int
	StaleServes int
	// What the session's own origin fetches transferred, and the
	// re-attempts made on its behalf.
	OriginBytes   int64
	OriginRetries int
}

// Fetch books one resolved fetch. A hit is any fetch that produced an object
// (ok) and cost this session no origin transfer — a resident entry, a stale
// serve, or a join of another session's flight; paid marks the fetch whose
// own origin transfer succeeded.
func (c *Counts) Fetch(ok, paid, stale bool) {
	if ok && !paid {
		c.CacheHits++
	} else {
		c.CacheMisses++
	}
	if stale {
		c.StaleServes++
	}
}

// Step is what the driver owes the session after an input.
type Step struct {
	// Quiet, when nonzero, (re)starts the quiet window: cancel the running
	// timer and, when the new one elapses, hand this generation to QuietFired.
	Quiet int
	// Complete: the page is done, emit the completion note.
	Complete bool
}

// NewSession constructs a session; flush receives every release and objects
// (the page's object count, 0 when unknown) sizes the mirror.
func NewSession(flush func(items []Item, reason FlushReason), objects int) *Session {
	return &Session{flush: flush, sent: make(map[string]bool, objects)}
}

// StartPage begins a page load; have is the client's resume manifest. The
// mirror persists; schedule, onload, completion and quiet window start over.
func (s *Session) StartPage(cfg Config, have []string) {
	for _, u := range have {
		s.sent[u] = true
	}
	s.b = NewBundler(cfg, s.release)
	s.completeSent = false
	s.quietGen++
}

// Completed reports whether the current page has been declared complete.
func (s *Session) Completed() bool { return s.completeSent }

// Collected offers one fetched object to the session.
func (s *Session) Collected(it Item) Step {
	switch {
	case s.sent[it.URL]:
		// Already at the client (same version): no redundant transfer (§4.5).
		s.Skipped++
	case s.completeSent:
		// Missed by the completion heuristic: pushed on its own so the client
		// is never starved.
		s.release([]Item{it}, FlushComplete)
	default:
		s.b.Add(it)
	}
	if s.b.onloadSeen {
		return s.armQuiet()
	}
	return Step{}
}

// OnLoad signals the proxy's onload event: the schedule flushes what it held
// and the quiet window opens.
func (s *Session) OnLoad() Step {
	s.b.OnLoad()
	return s.armQuiet()
}

// QuietFired reports that quiet window gen elapsed with no arrival: for the
// last window armed, once per page, the schedule drains and the page completes.
func (s *Session) QuietFired(gen int) Step {
	if gen != s.quietGen || s.completeSent {
		return Step{}
	}
	s.completeSent = true
	s.b.Complete()
	return Step{Complete: true}
}

// Quiescent reports that the driver has proved nothing can arrive before the
// current quiet window elapses: after onload it completes the page exactly as
// that window's QuietFired would, so the window is an upper bound. Before
// onload, and once the page is complete, it does nothing.
func (s *Session) Quiescent() Step {
	if !s.b.onloadSeen {
		return Step{}
	}
	return s.QuietFired(s.quietGen)
}

// armQuiet hands out the next quiet window; none once the page is complete.
func (s *Session) armQuiet() Step {
	if s.completeSent {
		return Step{}
	}
	s.quietGen++
	return Step{Quiet: s.quietGen}
}

// release (the bundler's flush, and the straggler push) marks the mirror,
// books the push and hands the items to the driver.
func (s *Session) release(items []Item, reason FlushReason) {
	for _, it := range items {
		s.sent[it.URL] = true
		s.ObjectsPushed++
		s.BytesPushed += int64(len(it.Body))
	}
	s.flush(items, reason)
}

// Critical reports whether contentType is render-blocking (HTML, CSS, script,
// JSON): the class the stream layer sends first and both arms time.
func Critical(contentType string) bool {
	for _, sub := range [...]string{"html", "css", "javascript", "json"} {
		if strings.Contains(contentType, sub) {
			return true
		}
	}
	return false
}

package sched

import "strings"

// Session is the proxy's page-session policy (§4.4–§4.5), written once for
// both arms: withhold what the client already holds, release the rest by
// schedule, admit each release against the push budgets (stream, park or
// shed), re-arm a quiet window on every post-onload arrival, declare the page
// complete once, and push whatever arrives later individually. It has no
// clock, conn, lock or goroutine: a driver (core.ProxySession on the event
// loop, parcelnet.session under its mutex) feeds it inputs, receives streams
// through flush, synchronously, then carries out the returned Step. A driver
// that can prove the window will elapse with nothing new (parcelnet's crawl)
// says so with Quiescent instead of waiting.
type Session struct {
	// Counts is booked by the Session, and by the driver as its fetches
	// resolve (Fetch, OriginBytes, OriginRetries).
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

	// Admission (admission.go): limit bounds queued, the stream bytes admitted
	// and not yet Drained (≤ 0: unbounded; Requested may pass it), parked is
	// the backlog, offsets the client's resume prefixes, shed the input's.
	limit   int64
	shared  *Budget
	queued  int64
	parked  []Item
	offsets map[string]int64
	shed    []string
	closed  bool
}

// Counts is one session's accounting, as both arms' completion notes carry
// it; the json tags are the TComplete payload. Booking rule: every released
// object is at any moment exactly one of streamed (ObjectsPushed), Shed (the
// client fetches it itself; parked objects shed at completion included) or
// parked, so once nothing is parked released = ObjectsPushed + Shed; each
// Requested answer is one more release, streamed.
// Deferred counts objects parked at least once: never more than released.
type Counts struct {
	// Streams opened, their body bytes past any resume offset, and the
	// collected objects the mirror withheld; Resumed streams had an offset.
	ObjectsPushed int   `json:"objects_pushed"`
	BytesPushed   int64 `json:"bytes_pushed"`
	Skipped       int   `json:"objects_skipped,omitempty"`
	Resumed       int   `json:"objects_resumed,omitempty"`
	Deferred      int   `json:"objects_deferred,omitempty"`
	Shed          int   `json:"objects_shed,omitempty"`
	// The session's fetches split by the Fetch rule (StaleServes tags the
	// degraded hits), the re-attempts made on its behalf, and what its own
	// origin fetches transferred.
	CacheHits     int   `json:"cache_hits,omitempty"`
	CacheMisses   int   `json:"cache_misses,omitempty"`
	OriginRetries int   `json:"origin_retries,omitempty"`
	StaleServes   int   `json:"stale_serves,omitempty"`
	OriginBytes   int64 `json:"origin_bytes,omitempty"`
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
	// Shed lists the objects this input shed: tell the client to fetch them
	// itself.
	Shed []string
	// Quiet, when nonzero, (re)starts the quiet window: cancel the running
	// timer and, when the new one elapses, hand this generation to QuietFired.
	Quiet int
	// Complete: the page is done, emit the completion note.
	Complete bool
}

// NewSession constructs a session; flush receives every admitted object and
// objects (the page's object count, 0 when unknown) sizes the mirror. limit
// bounds the bytes the session queues and shared is the proxy-wide budget;
// with neither (0, nil) every release is streamed whole, in release order.
func NewSession(flush func(items []Item, reason FlushReason), objects int, limit int64, shared *Budget) *Session {
	return &Session{flush: flush, sent: make(map[string]bool, objects), limit: limit, shared: shared}
}

// StartPage begins a page load; have is the client's resume manifest and
// partial the streams it holds a prefix of. The mirror persists; schedule,
// onload, completion and quiet window start over.
func (s *Session) StartPage(cfg Config, have []string, partial []Partial) {
	for _, u := range have {
		s.sent[u] = true
	}
	s.offsets = nil
	for _, p := range partial {
		if s.offsets == nil {
			s.offsets = make(map[string]int64, len(partial))
		}
		s.offsets[p.URL] = max(p.Bytes, 0)
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
		return s.step(s.armQuiet())
	}
	return s.step(Step{})
}

// OnLoad signals the proxy's onload event: the schedule flushes what it held
// and the quiet window opens.
func (s *Session) OnLoad() Step {
	s.b.OnLoad()
	return s.step(s.armQuiet())
}

// QuietFired reports that quiet window gen elapsed with no arrival: for the
// last window armed, once per page, the schedule drains, whatever is still
// parked is shed — the page ends with the client knowing everything it has
// to fetch itself — and the page completes.
func (s *Session) QuietFired(gen int) Step {
	if gen != s.quietGen || s.completeSent {
		return Step{}
	}
	s.completeSent = true
	s.b.Complete()
	s.shedParked()
	return s.step(Step{Complete: true})
}

// Quiescent reports that the driver has proved nothing can arrive before the
// current quiet window elapses: after onload it completes the page exactly as
// that window's QuietFired would, so the window is an upper bound. Before
// onload, once the page is complete, and while pushes are parked (the window
// is their time to drain rather than be shed) it does nothing.
func (s *Session) Quiescent() Step {
	if !s.b.onloadSeen || len(s.parked) > 0 {
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

// step hands the input's shed objects to its Step.
func (s *Session) step(st Step) Step {
	st.Shed, s.shed = s.shed, nil
	return st
}

// release (the bundler's flush, and the straggler push) marks the mirror and
// admits the items; nothing is released once the session is closed.
func (s *Session) release(items []Item, reason FlushReason) {
	if s.closed {
		return
	}
	for _, it := range items {
		s.sent[it.URL] = true
	}
	s.admit(items, reason, true)
}

// Direct reports whether url is an object the proxy cannot see into (the
// encrypted scheme, §4.5): no proxy fetches or pushes it, and the client
// fetches it itself over its direct path.
func Direct(url string) bool { return strings.HasPrefix(url, "https://") }

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

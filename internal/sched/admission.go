package sched

import "sync/atomic"

// Budget is the proxy-wide push budget: the byte reservation the sessions of
// one proxy share for stream bytes admitted and not yet written (limit ≤ 0:
// unbounded), and their tally of deferred and shed objects. A nil *Budget is
// unbounded and tallies nothing.
type Budget struct {
	limit          int64
	used           atomic.Int64
	Deferred, Shed atomic.Int64
}

// NewBudget returns a budget of limit bytes.
func NewBudget(limit int64) *Budget { return &Budget{limit: limit} }

// Used returns the bytes currently reserved.
func (b *Budget) Used() int64 { return b.used.Load() }

// reserve claims n bytes unless that would exceed the limit (force: claim
// them regardless). The session's queue holds the claim until Drained or
// Close releases it.
//
//parcelvet:acquire pushq
func (b *Budget) reserve(n int64, force bool) bool {
	for b != nil {
		cur := b.used.Load()
		if !force && b.limit > 0 && cur+n > b.limit {
			return false
		}
		if b.used.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
	return true
}

// release returns n reserved bytes.
//
//parcelvet:release pushq
func (b *Budget) release(n int64) {
	if b != nil {
		b.used.Add(-n)
	}
}

// Partial is a resume-manifest entry: the client holds the first Bytes bytes
// of URL's body, from a stream cut mid-object.
type Partial struct {
	URL   string `json:"url"`
	Bytes int64  `json:"bytes"`
}

// admit settles one release, or the parked backlog again (fresh false), in
// schedule order: objects stream (reaching flush) until the first that has
// to wait, which parks with everything after it; only a first park counts as
// a deferral.
func (s *Session) admit(items []Item, reason FlushReason, fresh bool) {
	n := 0
	for i := range items {
		stream, wait := s.decide(&items[i])
		if wait {
			s.parked = append(s.parked, items[i:]...)
			if fresh {
				s.Deferred += len(items) - i
				if s.shared != nil {
					s.shared.Deferred.Add(int64(len(items) - i))
				}
			}
			break
		}
		if stream {
			items[n] = items[i]
			n++
		}
	}
	if n > 0 {
		s.flush(items[:n], reason)
	}
}

// decide settles one object against the session and proxy budgets in body
// bytes past its resume offset: it streams (reserved, booked, given its
// Offset), waits, or is shed. Nothing overtakes the parked backlog. A session
// with nothing queued never waits: within the proxy budget its object streams
// however large (one oversized object cannot livelock), and beyond it the
// object is shed, since nothing of this session's will drain to make room.
func (s *Session) decide(it *Item) (stream, wait bool) {
	size := int64(len(it.Body))
	offset := min(s.offsets[it.URL], size)
	n := size - offset
	if len(s.parked) > 0 || s.limit > 0 && s.queued > 0 && s.queued+n > s.limit {
		return false, true
	}
	if !s.shared.reserve(n, false) {
		if s.queued > 0 {
			return false, true
		}
		s.shedOne(it.URL)
		return false, false
	}
	s.hold(n)
	s.ObjectsPushed++
	s.BytesPushed += n
	if offset > 0 {
		s.Resumed++
		delete(s.offsets, it.URL)
	}
	it.Offset = offset
	return true, false
}

// Requested answers the client's request for an object it is missing
// (§4.5): it streams now, whole, through the same flush as any push. The
// client is blocked on it and a shed would only bring the request back, so
// it overtakes the parked backlog and its bytes are reserved past any
// budget; it is booked as a push and held until Drained like one.
func (s *Session) Requested(it Item) {
	if s.closed {
		return
	}
	n := int64(len(it.Body))
	s.shared.reserve(n, true)
	s.hold(n)
	s.sent[it.URL] = true
	s.ObjectsPushed++
	s.BytesPushed += n
	it.Offset = 0
	s.flush([]Item{it}, FlushRequested)
}

// hold moves a fresh reservation into the session's queue.
//
//parcelvet:transfer pushq
func (s *Session) hold(n int64) { s.queued += n }

// shedOne books one object the client must fetch itself; the Step names it.
func (s *Session) shedOne(url string) {
	s.shed = append(s.shed, url)
	s.Shed++
	if s.shared != nil {
		s.shared.Shed.Add(1)
	}
}

// shedParked sheds the whole parked backlog.
func (s *Session) shedParked() {
	for _, it := range s.parked {
		s.shedOne(it.URL)
	}
	s.parked = nil
}

// Drained reports n admitted stream bytes written: they leave both budgets,
// and once the queue is under half the session budget (or empty) the parked
// backlog is admitted again, so it refills the queue incrementally and
// always progresses once the client catches up.
func (s *Session) Drained(n int64) Step {
	if s.closed {
		return Step{}
	}
	s.queued -= n
	s.shared.release(n)
	if len(s.parked) == 0 || s.limit > 0 && s.queued > 0 && s.queued >= s.limit/2 {
		return Step{}
	}
	backlog := s.parked
	s.parked = nil
	s.admit(backlog, FlushDrained, false)
	return s.step(Step{})
}

// Parked returns the deferred backlog in schedule order (read-only).
func (s *Session) Parked() []Item { return s.parked }

// Close ends the session at the driver's teardown: the queue's reservation
// returns to the proxy budget and what is parked is shed (the Step names it);
// nothing is released after.
func (s *Session) Close() Step {
	s.closed = true
	s.shared.release(s.queued)
	s.queued = 0
	s.shedParked()
	return s.step(Step{})
}

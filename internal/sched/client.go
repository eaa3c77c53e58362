package sched

import (
	"maps"
	"sort"
	"time"
)

// ClientSession is the client's page-session policy (§4.5, §5.2), written
// once for core.Client, core.LoadClient and parcelnet.Client. Objects arrive
// pushed, so the client keeps each once, in arrival order, and asks the proxy
// for a missing one only after the completion note or once it was shed;
// sched.Direct objects, shed ones when the driver has a direct path, and all
// once degraded go over that path. Like Session it has no clock, conn, lock
// or goroutine: the driver feeds it inputs with its own clock's readings and
// carries out what they return — at most one proxy request per URL per
// connection, at most one direct fetch per URL at a time.
type ClientSession struct {
	ClientCounts
	Timeline Timeline // the current page load's milestones

	direct             bool
	page               string
	start              time.Duration
	items              []Item              // the store, in arrival order
	urls               map[string]urlState // every URL the session knows of
	partials           map[string][]byte   // cut streams' prefixes, for resume
	fetching           int                 // direct fetches under way
	notified, degraded bool
	note               Counts
}

// ClientCounts is the client's half of the books. The session books proxy
// deliveries (duplicates included; PartialResumes finished a held prefix),
// wants answered from the store (requests the pushes saved, §4.5),
// Fallbacks (proxy requests, and direct fetches of shed objects or once
// degraded), every direct fetch, and shed objects. The driver books the bytes
// the proxy sent, reconnect dials, resumes, TDrain notices, and proxy
// requests whose write failed.
type ClientCounts struct {
	ObjectsReceived, PartialResumes, SuppressedRequests int
	Fallbacks, DirectFetches, ShedReceived              int
	BytesReceived                                       int64
	Retries, Resumes, Drained, FallbackWriteErrors      int
}

// Timeline holds a page load's milestones as durations from Start, each zero
// until reached: the first proxy delivery; the first critical object to
// land, pushed or fetched directly — one of a Critical type, or the page's
// document whatever it holds (an error page renders too); and completion,
// which is the completion note (or the Degrade that stands in for it) or, if
// direct fetches are under way then, the last of them to finish. A page
// whose objects the proxy shed completes once the client holds them, not
// when the proxy stops.
type Timeline struct{ FirstByte, FirstCritical, Complete time.Duration }

// urlState is what the session knows of one URL: its place in the store
// from 1 (0 while not held) and what the page and proxy did about it.
type urlState struct {
	held  int32
	state uint8
}

const (
	objWanted    uint8 = 1 << iota // the page asked for it
	objRequested                   // asked of the proxy on this connection
	objFetching                    // a direct fetch is under way
	objShed                        // this connection's proxy will not push it
)

// Action is the session's answer to Want: the object is on its way (Wait) or
// held (Deliver); the driver must ask the proxy (Request, §4.5) or fetch it
// directly and hand the result to Fetched (FetchDirect); or only a direct
// fetch could bring it and the driver has no direct path (NoDirectPath).
type Action int

const (
	Wait Action = iota
	Deliver
	Request
	FetchDirect
	NoDirectPath
)

// ClientStep is what the driver owes the session after an input, booked
// already: ask the proxy for Request, in order; fetch Direct directly.
type ClientStep struct{ Request, Direct []string }

// NewClientSession returns a session; direct: the driver has a direct path,
// and objects (the page's object count, 0 when unknown) sizes the store.
func NewClientSession(direct bool, objects int) ClientSession {
	return ClientSession{direct: direct, items: make([]Item, 0, objects), urls: make(map[string]urlState, objects)}
}

// Start begins loading page at the driver's clock reading at: the timeline
// and completion start over; the store persists (a revisit renders from it).
func (s *ClientSession) Start(page string, at time.Duration) {
	s.page, s.start, s.Timeline = page, at, Timeline{}
	s.notified, s.note = false, Counts{}
}

// Received lands a proxy delivery at at (it.Offset > 0: a stream resumed
// from a held prefix); a duplicate is counted and dropped.
func (s *ClientSession) Received(it Item, at time.Duration) {
	s.ObjectsReceived++
	if it.Offset > 0 {
		s.PartialResumes++
	}
	delete(s.partials, it.URL)
	if s.Timeline.FirstByte == 0 {
		s.Timeline.FirstByte = at - s.start
	}
	it.ArrivedAt = at
	s.land(it)
}

// Fetched lands the result of a direct fetch FetchDirect started, finished
// at it.ArrivedAt (ok false: it failed, and the next Want may start
// another).
func (s *ClientSession) Fetched(it Item, ok bool) {
	o := s.urls[it.URL]
	if o.state&objFetching != 0 {
		s.fetching--
	}
	o.state &^= objFetching
	s.urls[it.URL] = o
	if ok {
		s.land(it)
	}
	s.settle(it.ArrivedAt)
}

// settle stamps completion at at once the page is notified and no direct
// fetch is under way.
func (s *ClientSession) settle(at time.Duration) {
	if s.notified && s.fetching == 0 && s.Timeline.Complete == 0 {
		s.Timeline.Complete = at - s.start
	}
}

// land stores it, arrived at it.ArrivedAt, unless the URL is held already:
// the first arrival wins.
func (s *ClientSession) land(it Item) {
	if s.Timeline.FirstCritical == 0 && (it.URL == s.page || Critical(it.ContentType)) {
		s.Timeline.FirstCritical = it.ArrivedAt - s.start
	}
	if o := s.urls[it.URL]; o.held == 0 {
		s.items = append(s.items, it)
		o.held = int32(len(s.items))
		s.urls[it.URL] = o
	}
}

// Want asks for url on the page's behalf and returns the held object with
// Deliver; Request and FetchDirect are booked for the driver to carry out.
func (s *ClientSession) Want(url string) (Item, Action) {
	o := s.urls[url]
	if o.held > 0 {
		s.SuppressedRequests++
		return s.items[o.held-1], Deliver
	}
	o.state |= objWanted
	return Item{}, s.take(url, o)
}

// take routes url, known as o, and books what the route asks of the driver.
func (s *ClientSession) take(url string, o urlState) Action {
	act := s.route(o, url)
	switch act {
	case Request:
		o.state |= objRequested
		s.Fallbacks++
	case FetchDirect:
		o.state |= objFetching
		s.fetching++
		s.DirectFetches++
		if !Direct(url) {
			s.Fallbacks++
		}
	}
	s.urls[url] = o
	return act
}

// route is the §4.5 rule for a URL not held.
func (s *ClientSession) route(o urlState, url string) Action {
	switch {
	case o.state&(objRequested|objFetching) != 0:
		return Wait
	case Direct(url) || s.degraded || o.state&objShed != 0 && s.direct:
		if !s.direct {
			return NoDirectPath
		}
		return FetchDirect
	case o.state&objShed != 0 || s.notified:
		return Request
	}
	return Wait
}

// advance routes urls and collects what their routes ask of the driver.
func (s *ClientSession) advance(urls []string) (st ClientStep) {
	for _, u := range urls {
		switch s.take(u, s.urls[u]) {
		case Request:
			st.Request = append(st.Request, u)
		case FetchDirect:
			st.Direct = append(st.Direct, u)
		}
	}
	return st
}

// Complete takes the page's completion note at at (a repeat changes
// nothing): every wanted object still missing is asked of the proxy (§4.5),
// in URL order, so the sim's upload bytes and energy do not follow map order.
func (s *ClientSession) Complete(note Counts, at time.Duration) ClientStep {
	if s.notified {
		return ClientStep{}
	}
	s.notified, s.note = true, note
	var missing []string
	for u, o := range s.urls {
		if o.held == 0 && o.state&objWanted != 0 {
			missing = append(missing, u)
		}
	}
	sort.Strings(missing)
	st := s.advance(missing)
	s.settle(at)
	return st
}

// Shed takes a shed note: the proxy will not push urls. With a direct path
// each is fetched at once, before the page asks (the push benefit,
// recovered); without one the wanted ones are asked of the proxy.
func (s *ClientSession) Shed(urls []string) ClientStep {
	s.ShedReceived += len(urls)
	var todo []string
	for _, u := range urls {
		o := s.urls[u]
		o.state |= objShed
		s.urls[u] = o
		if o.held == 0 && (s.direct || o.state&objWanted != 0) {
			todo = append(todo, u)
		}
	}
	return s.advance(todo)
}

// Disconnected reports the proxy connection lost; held (URL → bytes) are the
// prefixes of the streams it cut. Its requests and sheds die with it: the
// next proxy decides afresh.
func (s *ClientSession) Disconnected(held map[string][]byte) {
	if s.partials == nil && len(held) > 0 {
		s.partials = make(map[string][]byte, len(held))
	}
	maps.Copy(s.partials, held)
	for u, o := range s.urls {
		if o.state&(objRequested|objShed) != 0 {
			o.state &^= objRequested | objShed
			s.urls[u] = o
		}
	}
}

// Manifest is a resume request's manifest: every held object, and the
// prefix of every cut stream not completed since, each in URL order.
func (s *ClientSession) Manifest() (have []string, partial []Partial) {
	have = s.Objects()
	for u, b := range s.partials {
		if len(b) > 0 && s.urls[u].held == 0 {
			partial = append(partial, Partial{URL: u, Bytes: int64(len(b))})
		}
	}
	sort.Strings(have)
	sort.Slice(partial, func(i, j int) bool { return partial[i].URL < partial[j].URL })
	return have, partial
}

// Degrade moves the client to its direct path for good (DIR mode) at at; it
// stands in for the completion note. Without a direct path it reports false.
func (s *ClientSession) Degrade(at time.Duration) bool {
	if s.direct && !s.notified {
		s.notified = true
		s.settle(at)
	}
	s.degraded = s.direct
	return s.direct
}

// Completed reports whether the page completed (its note arrived, or the
// client degraded); Degraded whether the client moved to its direct path;
// Note the books of the page's note; Page the page; Has whether url is held;
// Held the prefix of url's body kept from a cut stream.
func (s *ClientSession) Completed() bool        { return s.notified }
func (s *ClientSession) Degraded() bool         { return s.degraded }
func (s *ClientSession) Note() Counts           { return s.note }
func (s *ClientSession) Page() string           { return s.page }
func (s *ClientSession) Has(url string) bool    { return s.urls[url].held > 0 }
func (s *ClientSession) Held(url string) []byte { return s.partials[url] }

// Objects lists the held URLs in arrival order.
func (s *ClientSession) Objects() []string {
	urls := make([]string, len(s.items))
	for i, it := range s.items {
		urls[i] = it.URL
	}
	return urls
}

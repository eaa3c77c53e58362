package parcelnet

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/parcel-go/parcel/internal/objcache"
	"github.com/parcel-go/parcel/internal/resilience"
	"github.com/parcel-go/parcel/internal/sched"
)

// originConns bounds the proxy-wide origin connection pool: one shared
// fetcher for every session, sized like the paper's "well-provisioned" server
// pool (§4.3).
const originConns = 64

// ProxyConfig tunes the real-network PARCEL proxy.
type ProxyConfig struct {
	// OriginAddr is where every logical domain is served (the replay
	// origin); production deployments would resolve DNS instead.
	OriginAddr string
	// Sched is the §4.4 release schedule: when collected objects are handed
	// to the stream layer.
	Sched sched.Config
	// QuietPeriod is the §4.5 completion heuristic window. It is an upper
	// bound: a page completes as soon as its crawl proves the window would
	// elapse with nothing new.
	QuietPeriod time.Duration
	// IdleTimeout reaps sessions whose client has gone silent: the read side
	// is deadlined per frame, so a dead client frees its session (and the
	// resources behind it) instead of pinning them forever. 0 means the
	// 2-minute default; negative disables the deadline.
	IdleTimeout time.Duration
	// FixedRandom applies the §7.3 replay rewrite in page JS.
	FixedRandom bool

	// CacheBytes is the cross-session object cache's byte budget: origin
	// objects fetched for one session are served to every other session from
	// memory, single-flighted so concurrent misses cost one origin fetch.
	// 0 (or negative) means 256 MB.
	CacheBytes int64
	// SessionPushBudget and ProxyPushBudget bound the stream body bytes
	// admitted and not yet written, per session and across all sessions, so
	// a slow reader cannot grow the queue without bound: sched.Session defers
	// what would exceed its session's budget and sheds (TShed: the client
	// fetches it direct) what a session with nothing queued cannot reserve.
	// 0 means 8 MB and 64 MB; negative disables a budget.
	SessionPushBudget int64
	ProxyPushBudget   int64
	// WrapConn, when set, wraps every accepted connection before the session
	// reads from it (tests use it to shape the server side or shrink socket
	// buffers so backpressure is reachable at test scale).
	WrapConn func(net.Conn) net.Conn

	// Resilience is the internal/resilience discipline every origin fetch
	// runs under: per-attempt deadlines, a jittered-backoff retry budget, and
	// per-origin circuit breakers; zero fields take the package defaults, so
	// the zero value is Policy{}.WithDefaults(). It also arms the shared
	// cache's serve-stale-on-error (CacheFreshFor) and negative caching
	// (Policy.NegTTL).
	Resilience resilience.Policy
	// CacheFreshFor is the shared cache's freshness window: entries older
	// than this are revalidated at the origin, and served stale when the
	// origin is failing. 0 means entries never go stale.
	CacheFreshFor time.Duration

	// MuxChunkSize is the parcelmux data-chunk size (0 means 32 KB).
	// MuxStreamWindow and MuxConnWindow are the initial per-stream and
	// per-connection flow-control windows (0 means 256 KB and 1 MB).
	MuxChunkSize    int
	MuxStreamWindow int64
	MuxConnWindow   int64

	// Logf, when set, receives diagnostic lines.
	Logf func(format string, args ...any)
}

// Proxy is a running real-network PARCEL proxy: a listener and the registry
// of its sessions, a shared origin fetcher, the cross-session object cache
// and the proxy-wide push budget its sessions' admission draws on.
type Proxy struct {
	cfg   ProxyConfig
	ln    net.Listener
	wg    sync.WaitGroup
	fetch *OriginFetcher
	cache *objcache.Cache
	res   *resilientFetcher
	// budget is ProxyPushBudget: the reservation every session's admission
	// draws on, and the proxy's deferred/shed tally.
	budget *sched.Budget

	drained atomic.Int64
	closed  atomic.Bool

	// The session registry: touched at accept and teardown, and by Drain.
	mu     sync.Mutex
	active map[*session]struct{}
	served int
}

// StartProxy listens on addr and serves PARCEL sessions.
func StartProxy(addr string, cfg ProxyConfig) (*Proxy, error) {
	if cfg.OriginAddr == "" {
		return nil, fmt.Errorf("parcelnet: ProxyConfig.OriginAddr required")
	}
	if cfg.QuietPeriod == 0 {
		cfg.QuietPeriod = 2 * time.Second
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 2 * time.Minute
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 256 << 20
	}
	if cfg.SessionPushBudget == 0 {
		cfg.SessionPushBudget = 8 << 20
	}
	if cfg.ProxyPushBudget == 0 {
		cfg.ProxyPushBudget = 64 << 20
	}
	if err := cfg.Sched.Validate(); err != nil {
		return nil, err
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if err := cfg.Resilience.Validate(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		cfg:    cfg,
		ln:     ln,
		fetch:  NewOriginFetcherN(cfg.OriginAddr, originConns),
		budget: sched.NewBudget(cfg.ProxyPushBudget),
		active: make(map[*session]struct{}),
	}
	p.res = newResilientFetcher(p.fetch.FetchValidatedCtx, cfg.Resilience)
	p.cache = objcache.New(objcache.Config{
		Capacity: cfg.CacheBytes, Segments: runtime.GOMAXPROCS(0),
		FreshFor: cfg.CacheFreshFor, NegTTL: p.res.group.Policy().NegTTL,
	})
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Close stops accepting sessions, tears down the active ones, and waits for
// their goroutines to exit. After a Drain it only waits (the listener and
// sessions are already gone), so `defer proxy.Close()` composes with an
// explicit drain.
func (p *Proxy) Close() error {
	p.closed.Store(true)
	err := p.ln.Close()
	if errors.Is(err, net.ErrClosed) {
		err = nil
	}
	for _, s := range p.activeSessions() {
		s.conn.Close()
	}
	p.wg.Wait()
	p.fetch.Client.CloseIdleConnections()
	return err
}

// drainPoll is the Drain busy-wait granularity, and drainFlushFloor the
// minimum window a straggler gets to read its TDrain notice off the wire even
// when the drain deadline has already passed.
const (
	drainPoll       = 2 * time.Millisecond
	drainFlushFloor = 100 * time.Millisecond
)

// Drain retires the proxy gracefully: it stops admitting sessions, gives the
// live ones until the deadline to finish delivering their pages, then hands
// every remaining session a TDrain notice — carrying the pending work as a
// resume manifest — and closes the connections once the notices are flushed.
// Clients reconnect to a restarted proxy with that manifest or fall back to
// their direct-origin path, so a drain loses no objects. Drain returns once
// every session goroutine has exited; a later Close is a cheap no-op.
func (p *Proxy) Drain(timeout time.Duration) error {
	p.closed.Store(true)
	err := p.ln.Close()
	if errors.Is(err, net.ErrClosed) {
		err = nil
	}
	deadline := time.Now().Add(timeout)
	for p.busySessions() > 0 && time.Now().Before(deadline) {
		time.Sleep(drainPoll)
	}
	for _, s := range p.activeSessions() {
		s.drainNotice()
	}
	// The notice rides each session's send queue; clients hang up when they
	// read it, which is what empties the registry. Stragglers that never do
	// (dead readers, jammed links) are cut off after the flush window.
	flush := time.Until(deadline)
	if flush < drainFlushFloor {
		flush = drainFlushFloor
	}
	flushDeadline := time.Now().Add(flush)
	for p.Sessions() > 0 && time.Now().Before(flushDeadline) {
		time.Sleep(drainPoll)
	}
	for _, s := range p.activeSessions() {
		s.conn.Close()
	}
	p.wg.Wait()
	p.fetch.Client.CloseIdleConnections()
	return err
}

// DrainedSessions returns how many sessions were handed a TDrain notice.
func (p *Proxy) DrainedSessions() int64 { return p.drained.Load() }

// activeSessions snapshots the registered sessions.
func (p *Proxy) activeSessions() []*session {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*session, 0, len(p.active))
	for s := range p.active {
		out = append(out, s)
	}
	return out
}

// busySessions counts sessions still delivering page content — anything not
// yet idle in the idleLocked sense.
func (p *Proxy) busySessions() int {
	n := 0
	for _, s := range p.activeSessions() {
		s.mu.Lock()
		if !s.idleLocked() {
			n++
		}
		s.mu.Unlock()
	}
	return n
}

// Sessions returns the number of currently active sessions.
func (p *Proxy) Sessions() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.active)
}

// SessionsServed returns the total number of sessions accepted so far.
func (p *Proxy) SessionsServed() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.served
}

// CacheStats returns the shared object cache's counters.
func (p *Proxy) CacheStats() objcache.Stats { return p.cache.Stats() }

// QueuedBytes returns the current proxy-wide reservation against
// ProxyPushBudget: stream body bytes admitted but not yet written.
func (p *Proxy) QueuedBytes() int64 { return p.budget.Used() }

// DeferredTotal returns how many objects admission control has parked behind
// slow readers so far (they are re-admitted as the session drains).
func (p *Proxy) DeferredTotal() int64 { return p.budget.Deferred.Load() }

// ShedTotal returns how many objects admission control has shed to clients'
// direct-origin paths so far.
func (p *Proxy) ShedTotal() int64 { return p.budget.Shed.Load() }

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.serve(conn)
		}()
	}
}

// outFrame is one queued control frame (settings, shed and drain notes, the
// completion note). Control frames reserve nothing against the push budgets;
// object bytes, fallback answers included, travel as mux streams.
type outFrame struct {
	typ     byte
	payload []byte
}

// session is the per-connection proxy state.
type session struct {
	proxy *Proxy
	conn  net.Conn
	// out is the writer goroutine's batch, reused from pass to pass.
	out frameBatch

	mu       sync.Mutex
	sendCond *sync.Cond
	// sendq is the control-frame queue and mux the parcelmux stream
	// scheduler; the session's writer goroutine drains both. The serve loop,
	// the crawler callbacks, and the quiet timer only ever enqueue, so a slow
	// client blocks its writer, never the proxy. completeNote stages the
	// encoded TComplete payload until every live stream has drained (nil:
	// nothing staged).
	sendq        []outFrame
	mux          *muxSender
	writerDone   chan struct{}
	completeNote []byte

	// page is the session policy and admission; its flush runs with s.mu held.
	page  *sched.Session
	crawl *crawler          // the page's discovery crawl; set once by startPage, stopped by teardown
	cache map[string]Object // session view: metadata only, bodies live in the shared cache
	// quiet is the running §4.5 window, armed on the crawl's clock.
	quiet  stopper
	closed bool
}

func (p *Proxy) serve(conn net.Conn) {
	if p.cfg.WrapConn != nil {
		conn = p.cfg.WrapConn(conn)
	}
	s := &session{
		proxy:      p,
		conn:       conn,
		mux:        newMuxSender(p.cfg.MuxChunkSize, p.cfg.MuxStreamWindow, p.cfg.MuxConnWindow),
		cache:      make(map[string]Object),
		writerDone: make(chan struct{}),
	}
	s.sendCond = sync.NewCond(&s.mu)
	s.page = sched.NewSession(s.pushLocked, 0, p.cfg.SessionPushBudget, p.budget)
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		conn.Close()
		close(s.writerDone)
		return
	}
	p.served++
	p.active[s] = struct{}{}
	p.mu.Unlock()
	go s.writeLoop()
	defer s.teardown()
	br := bufio.NewReader(conn)
	for {
		if p.cfg.IdleTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(p.cfg.IdleTimeout)); err != nil {
				p.cfg.Logf("set read deadline: %v", err)
				return
			}
		}
		typ, payload, err := ReadFramePooled(br)
		if err != nil {
			return
		}
		ok := s.handleFrame(typ, payload)
		// json.Unmarshal and the window-update decode copy everything they
		// keep, so the payload can go straight back to the pool.
		ReleaseFrameBuf(payload)
		if !ok {
			return
		}
	}
}

// handleFrame dispatches one inbound frame; it must not retain payload
// (the serve loop recycles it). It returns false to tear the session down.
func (s *session) handleFrame(typ byte, payload []byte) bool {
	p := s.proxy
	switch typ {
	case TPageRequest:
		var req PageRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			p.cfg.Logf("bad page request: %v", err)
			return false
		}
		return s.startPage(req)
	case TObjectRequest:
		var req ObjectRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			p.cfg.Logf("bad object request: %v", err)
			return false
		}
		go s.serveFallback(req.URL)
	case TWindowUpdate:
		if len(payload) < 8 {
			p.cfg.Logf("short window update (%d bytes)", len(payload))
			return false
		}
		id := binary.BigEndian.Uint32(payload[0:])
		inc := binary.BigEndian.Uint32(payload[4:])
		s.mu.Lock()
		if s.crawl == nil {
			// No page, so no stream to credit; crediting the connection window
			// would let a client widen it before the settings frame announces it.
			p.cfg.Logf("window update before page request ignored (stream %d, +%d)", id, inc)
		} else {
			s.mux.credit(id, inc)
			s.sendCond.Signal()
		}
		s.mu.Unlock()
	default:
		p.cfg.Logf("unexpected frame type %d", typ)
	}
	return true
}

// idleLocked reports whether the session has nothing left to deliver: its
// page completed and every queued frame, parked deferral, and mux stream has
// drained. An idle session is only still registered because the client keeps
// the connection open.
func (s *session) idleLocked() bool {
	return s.page.Completed() && len(s.sendq) == 0 && len(s.page.Parked()) == 0 &&
		s.completeNote == nil && s.mux.live == 0
}

// drainNotice queues the session's TDrain frame. The pending manifest is
// whatever the proxy scheduled but will no longer deliver — parked deferrals
// plus mux streams with unsent bytes — so the client knows exactly what to
// recover elsewhere. Already-closed sessions are skipped.
func (s *session) drainNotice() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	var note DrainNote
	for _, it := range s.page.Parked() {
		note.Pending = append(note.Pending, it.URL)
	}
	note.Pending = append(note.Pending, s.mux.pendingURLs()...)
	sort.Strings(note.Pending)
	s.proxy.drained.Add(1)
	if err := s.enqueueJSONLocked(TDrain, note); err != nil {
		// The client can never learn it should recover elsewhere; kill the
		// connection so its standard disconnect path takes over.
		s.proxy.cfg.Logf("%v", err)
		s.conn.Close()
	}
}

// teardown releases everything a session holds: the connection, the page
// crawl with its pending script timers, the pending quiet timer, the writer
// goroutine, and the page's push-budget reservation, so disconnects never
// leak it. It runs exactly once, when serve returns, and unregisters the
// session.
func (s *session) teardown() {
	if s.crawl != nil {
		// Page timers run for seconds past the last frame; a crawl that
		// outlived its session would keep fetching and pin every body.
		s.crawl.stop()
	}
	s.mu.Lock()
	s.closed = true
	s.page.Close() // with the client gone, what it sheds has no one to tell
	if s.quiet != nil {
		s.quiet.Stop()
		s.quiet = nil
	}
	s.sendCond.Broadcast()
	s.mu.Unlock()
	s.conn.Close()
	<-s.writerDone
	p := s.proxy
	p.mu.Lock()
	delete(p.active, s)
	p.mu.Unlock()
}

// writeLoop is the session's writer goroutine. Each pass drains, under the
// lock, what it would send next into one frameBatch of about batchBytes, in
// the order the protocol fixes: control frames (settings, shed and drain
// notes) ahead of stream data, then the WRR-ordered stream frames, then the
// TComplete barrier once every live stream has finished, so completion never
// overtakes data. The batch leaves in one write, and only then are its stream
// bytes reported to the page session (Drained), which releases their
// reservation and re-admits parked items as space frees up. On a write error
// it closes the connection so the read side tears the session down.
func (s *session) writeLoop() {
	defer close(s.writerDone)
	b := &s.out
	s.mu.Lock()
	for {
		if s.closed {
			s.mu.Unlock()
			return
		}
	fill:
		for !b.full() {
			switch {
			case len(s.sendq) > 0:
				f := s.sendq[0]
				s.sendq[0] = outFrame{}
				s.sendq = s.sendq[1:]
				b.frame(f.typ, f.payload)
			case s.mux.nextFrame(b):
			case s.completeNote != nil && s.mux.live == 0:
				b.frame(TComplete, s.completeNote)
				s.completeNote = nil
			default:
				break fill
			}
		}
		if b.size() == 0 {
			s.sendCond.Wait()
			continue
		}
		s.mu.Unlock()

		// The batch references cached bodies and queued payloads, none of
		// which is mutated once queued, so it stays valid across the
		// unlocked write.
		err := writeBatch(s.conn, b)
		drained := b.body
		b.reset()
		if err != nil {
			s.proxy.cfg.Logf("session write: %v", err)
			s.conn.Close()
			return
		}
		s.mu.Lock()
		s.stepLocked(s.page.Drained(drained))
	}
}

// enqueueLocked appends one control frame to the send queue and wakes the
// writer.
func (s *session) enqueueLocked(f outFrame) {
	s.sendq = append(s.sendq, f)
	s.sendCond.Signal()
}

// enqueueJSONLocked queues a small control frame (no budget reservation).
// The returned error is the marshal failure; callers must tear the session
// down on it (wireerr enforces this) — a silently dropped control note
// strands the client waiting for a shed/drain/complete signal that never
// comes.
func (s *session) enqueueJSONLocked(typ byte, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("parcelnet: encode control frame %d: %w", typ, err)
	}
	s.enqueueLocked(outFrame{typ: typ, payload: data})
	return nil
}

// startPage begins serving one page request. It returns false — tearing the
// session down — on a second TPageRequest over the same connection: the
// protocol is one page per session (one crawl, one stream scheduler).
func (s *session) startPage(req PageRequest) bool {
	cfg := s.proxy.cfg
	cfg.Logf("page request: %s (ua=%q, have=%d)", req.URL, req.UserAgent, len(req.Have))
	s.mu.Lock()
	if s.crawl != nil {
		s.mu.Unlock()
		cfg.Logf("duplicate page request on one session: %s", req.URL)
		return false
	}
	// Settings ride the control queue so the client learns the windows
	// before the first stream frame.
	s.enqueueLocked(outFrame{typ: TMuxSettings, payload: s.mux.settingsPayload()})
	// Objects the resume manifest lists are recorded, not re-pushed; partial
	// streams reopen at the offset the client holds.
	s.page.StartPage(cfg.Sched, req.Have, req.Partial)
	s.crawl = newCrawler(s.fetchURL, cfg.FixedRandom, s.collected, s.crawlLoaded, s.crawlSettled)
	s.mu.Unlock()

	s.crawl.start(req.URL)
	return true
}

// collected offers one crawled object to the page session.
func (s *session) collected(obj Object) {
	s.mu.Lock()
	s.storeLocked(obj)
	it := sched.Item{URL: obj.URL, ContentType: obj.ContentType, Status: obj.Status, Body: obj.Body}
	s.stepLocked(s.page.Collected(it))
	s.mu.Unlock()
}

// crawlLoaded is the crawl's onload.
func (s *session) crawlLoaded() {
	s.mu.Lock()
	s.stepLocked(s.page.OnLoad())
	s.mu.Unlock()
}

// crawlSettled runs when nothing the crawl started is still running. If the
// quiet window provably elapses with nothing new — no fetch or script in
// flight, every page timer due after it — the page session may complete now.
// The proof and the completion share s.mu, so no arrival falls between.
func (s *session) crawlSettled() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crawl.quiescent(s.proxy.cfg.QuietPeriod) {
		s.stepLocked(s.page.Quiescent())
	}
}

// storeLocked records the session's view of an object: metadata only. The
// body lives (deduplicated) in the shared cache and fallback requests
// re-resolve through it, so N sessions of one page cost one body, not N.
func (s *session) storeLocked(obj Object) {
	obj.Body = nil
	s.cache[obj.URL] = obj
}

// stepLocked carries out what the page session asks for: announce what it
// shed, restart the §4.5 quiet window, or close the page with its completion
// note.
func (s *session) stepLocked(st sched.Step) {
	if s.closed {
		return
	}
	if len(st.Shed) > 0 {
		s.shedLocked(st.Shed)
	}
	if gen := st.Quiet; gen != 0 {
		if s.quiet != nil {
			s.quiet.Stop()
		}
		s.quiet = s.crawl.afterFunc(s.proxy.cfg.QuietPeriod, func() { s.quietFired(gen) })
	}
	if !st.Complete {
		return
	}
	if s.quiet != nil {
		s.quiet.Stop()
		s.quiet = nil
	}
	if err := s.stageNoteLocked(CompleteNote{s.page.Counts}); err != nil {
		// Without the note the client waits out its completion timeout; close
		// the connection instead so it fails over immediately.
		s.proxy.cfg.Logf("%v", err)
		s.conn.Close()
	}
}

// quietFired is the §4.5 window's continuation. A timer that Stop came too
// late for carries a superseded gen, which the page session ignores.
func (s *session) quietFired(gen int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stepLocked(s.page.QuietFired(gen))
}

// stageNoteLocked encodes the completion note and stages it for the
// writer. It cannot ride the control queue — control frames drain ahead of
// stream data, and completion must come last — so the writer emits it once
// every live stream has finished. Callers must tear the session down on the
// returned marshal error (wireerr enforces this).
func (s *session) stageNoteLocked(note CompleteNote) error {
	data, err := json.Marshal(note)
	if err != nil {
		return fmt.Errorf("parcelnet: encode completion note: %w", err)
	}
	s.completeNote = data
	s.sendCond.Signal()
	return nil
}

// pushLocked opens a stream for each object the page session admitted: the
// body past its resume offset. The writer reports the bytes back through
// Drained as their chunks leave.
func (s *session) pushLocked(items []sched.Item, _ sched.FlushReason) {
	for _, it := range items {
		s.mux.add(it.URL, it.ContentType, it.Status, it.Body[it.Offset:], it.Offset, int64(len(it.Body)))
	}
	s.sendCond.Signal()
}

// shedLocked announces objects the page session shed: the client fetches
// them over its direct-origin path.
func (s *session) shedLocked(urls []string) {
	if err := s.enqueueJSONLocked(TShed, ShedNote{URLs: urls}); err != nil {
		// The client would wait on pushes that never come instead of
		// fetching the shed objects itself; tear the session down.
		s.proxy.cfg.Logf("%v", err)
		s.conn.Close()
	}
}

// serveFallback answers a missing-object request (§4.5) with a stream: the
// page session admits it ahead of everything (Requested). The body is
// re-resolved through the shared cache (a hit for anything recently pushed);
// only a recorded error status is answered from the session's view alone.
func (s *session) serveFallback(url string) {
	s.mu.Lock()
	obj, ok := s.cache[url]
	s.mu.Unlock()
	if !ok || obj.Status < 400 {
		body, ct, status, err := s.fetchURL(url)
		if err != nil {
			s.proxy.cfg.Logf("fallback fetch %s: %v", url, err)
			status = 502
		}
		if ok && ct == "" {
			// The session saw this object before; serve the recorded content
			// type when the refetch lost it.
			ct = obj.ContentType
		}
		obj = Object{URL: url, ContentType: ct, Status: status, Body: body}
	}
	s.mu.Lock()
	s.storeLocked(obj)
	s.page.Requested(sched.Item{URL: obj.URL, ContentType: obj.ContentType, Status: obj.Status, Body: obj.Body})
	s.mu.Unlock()
}

package parcelnet

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/parcel-go/parcel/internal/mhtml"
	"github.com/parcel-go/parcel/internal/objcache"
	"github.com/parcel-go/parcel/internal/resilience"
	"github.com/parcel-go/parcel/internal/sched"
)

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

	// Shards is the accept-side sharding width: sessions are hashed onto
	// Shards independent registries so registration, reaping, and counters
	// never contend on one proxy-wide lock. 0 means GOMAXPROCS.
	Shards int
	// CacheBytes is the cross-session object cache's byte budget: origin
	// objects fetched for one session are served to every other session from
	// memory, single-flighted so concurrent misses cost one origin fetch.
	// 0 (or negative) means 256 MB.
	CacheBytes int64
	// OriginConns bounds the proxy-wide origin connection pool (the shared
	// fetcher replaces the historical per-session fetchers, whose pools
	// multiplied by session count). 0 means 64 — the paper's
	// "well-provisioned" server pool (§4.3).
	OriginConns int
	// SessionPushBudget bounds the admitted-but-unsent stream body bytes queued
	// per session. When an object would exceed it, it is deferred — parked,
	// with everything scheduled after it, and re-admitted as the client drains
	// — instead of growing the queue without bound behind a slow reader.
	// 0 means 8 MB; negative disables the budget.
	SessionPushBudget int64
	// ProxyPushBudget bounds queued stream bytes across all sessions. When a
	// session with nothing queued cannot reserve against it, the object is
	// shed: the client is told (TShed) to fetch it over its direct-origin
	// path, trading push benefit for bounded memory. 0 means 64 MB; negative
	// disables the budget.
	ProxyPushBudget int64
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

// Proxy is a running real-network PARCEL proxy: a listener fanning sessions
// out over shards, a shared origin fetcher, the cross-session object cache
// and push-budget admission control.
type Proxy struct {
	cfg   ProxyConfig
	ln    net.Listener
	wg    sync.WaitGroup
	fetch *OriginFetcher
	cache *objcache.Cache
	res   *resilientFetcher

	// queued is the proxy-wide reservation counter for admitted-but-unsent
	// stream bytes; deferred/shedTotal aggregate admission outcomes.
	queued    atomic.Int64
	deferred  atomic.Int64
	shedTotal atomic.Int64
	drained   atomic.Int64
	closed    atomic.Bool

	shards []*shard
}

// shard owns one slice of the accept-side state: its own lock, session
// registry, and served counter. Sessions are hashed onto shards by client
// address, so a stalled or churning tenant contends only with its shard.
type shard struct {
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
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 256 << 20
	}
	if cfg.OriginConns <= 0 {
		cfg.OriginConns = 64
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
		cfg:   cfg,
		ln:    ln,
		fetch: NewOriginFetcherN(cfg.OriginAddr, cfg.OriginConns),
	}
	p.res = newResilientFetcher(p.fetch.FetchValidatedCtx, cfg.Resilience)
	p.cache = objcache.New(objcache.Config{
		Capacity: cfg.CacheBytes, Segments: cfg.Shards,
		FreshFor: cfg.CacheFreshFor, NegTTL: p.res.group.Policy().NegTTL,
	})
	p.shards = make([]*shard, cfg.Shards)
	for i := range p.shards {
		p.shards[i] = &shard{active: make(map[*session]struct{})}
	}
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

// activeSessions snapshots the registered sessions across shards.
func (p *Proxy) activeSessions() []*session {
	var out []*session
	for _, sh := range p.shards {
		sh.mu.Lock()
		for s := range sh.active {
			out = append(out, s)
		}
		sh.mu.Unlock()
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

// Sessions returns the number of currently active sessions across shards.
func (p *Proxy) Sessions() int {
	n := 0
	for _, sh := range p.shards {
		sh.mu.Lock()
		n += len(sh.active)
		sh.mu.Unlock()
	}
	return n
}

// SessionsServed returns the total number of sessions accepted so far.
func (p *Proxy) SessionsServed() int {
	n := 0
	for _, sh := range p.shards {
		sh.mu.Lock()
		n += sh.served
		sh.mu.Unlock()
	}
	return n
}

// ShardSessions returns the per-shard session counts (in shard order) — the
// observability hook the multi-tenant tests assert shard distribution and
// reaping against.
func (p *Proxy) ShardSessions() []int {
	out := make([]int, len(p.shards))
	for i, sh := range p.shards {
		sh.mu.Lock()
		out[i] = len(sh.active)
		sh.mu.Unlock()
	}
	return out
}

// CacheStats returns the shared object cache's counters.
func (p *Proxy) CacheStats() objcache.Stats { return p.cache.Stats() }

// QueuedBytes returns the current proxy-wide reservation against
// ProxyPushBudget: stream body bytes admitted but not yet written.
func (p *Proxy) QueuedBytes() int64 { return p.queued.Load() }

// DeferredTotal returns how many objects admission control has parked behind
// slow readers so far (they are re-admitted as the session drains).
func (p *Proxy) DeferredTotal() int64 { return p.deferred.Load() }

// ShedTotal returns how many objects admission control has shed to clients'
// direct-origin paths so far.
func (p *Proxy) ShedTotal() int64 { return p.shedTotal.Load() }

// reserve claims n bytes of the proxy-wide push budget, failing when the
// budget is exhausted (the shed signal). A reservation is handed to the
// stream that carries the bytes (muxSender.add) and released as the writer
// drains its chunks (releaseQueuedLocked); the pairing analyzer checks the
// admission path does so.
//
//parcelvet:acquire pushq
func (p *Proxy) reserve(n int64) bool {
	budget := p.cfg.ProxyPushBudget
	for {
		cur := p.queued.Load()
		if budget > 0 && cur+n > budget {
			return false
		}
		if p.queued.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

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

// shardFor hashes a client address onto a shard.
func (p *Proxy) shardFor(addr string) *shard {
	h := fnv.New32a()
	h.Write([]byte(addr))
	return p.shards[h.Sum32()%uint32(len(p.shards))]
}

// outFrame is one queued control frame (settings, shed and drain notes,
// fallback responses, the completion note). Control frames reserve nothing
// against the push budgets; object bytes travel as mux streams.
type outFrame struct {
	typ     byte
	payload []byte
}

// session is the per-connection proxy state.
type session struct {
	proxy *Proxy
	shard *shard
	conn  net.Conn
	fw    *FrameWriter

	mu       sync.Mutex
	sendCond *sync.Cond
	// sendq is the control-frame queue and mux the parcelmux stream
	// scheduler; the session's writer goroutine drains both. The serve loop,
	// the crawler callbacks, and the quiet timer only ever enqueue, so a slow
	// client blocks its writer, never the proxy. sendqBytes is the stream body
	// bytes reserved against the push budgets and not yet written.
	sendq      []outFrame
	mux        *muxSender
	sendqBytes int64
	writerDone chan struct{}
	// parked holds deferred items: released by the bundler while the session
	// budget was full, re-admitted as the writer drains.
	parked []sched.Item
	// partialOffsets maps resume-manifest URLs to the byte offset the client
	// already holds. completeNote stages the encoded TComplete payload until
	// every live stream has drained (nil: nothing staged).
	partialOffsets map[string]int64
	resumed        int
	completeNote   []byte

	// page is the session policy; its flush (admission) runs with s.mu held.
	page  *sched.Session
	crawl *crawler          // the page's discovery crawl; set once by startPage, stopped by teardown
	cache map[string]Object // session view: metadata only, bodies live in the shared cache
	// quiet is the running §4.5 window, armed on the crawl's clock.
	quiet  stopper
	closed bool

	deferredSeen int
	shedSeen     int
}

func (p *Proxy) serve(conn net.Conn) {
	if p.cfg.WrapConn != nil {
		conn = p.cfg.WrapConn(conn)
	}
	sh := p.shardFor(conn.RemoteAddr().String())
	s := &session{
		proxy:      p,
		shard:      sh,
		conn:       conn,
		fw:         NewFrameWriter(conn),
		mux:        newMuxSender(p.cfg.MuxChunkSize, p.cfg.MuxStreamWindow, p.cfg.MuxConnWindow),
		cache:      make(map[string]Object),
		writerDone: make(chan struct{}),
	}
	s.sendCond = sync.NewCond(&s.mu)
	s.page = sched.NewSession(func(items []sched.Item, _ sched.FlushReason) {
		s.admitUntilParkLocked(items, true)
	}, 0)
	sh.mu.Lock()
	if p.closed.Load() {
		sh.mu.Unlock()
		conn.Close()
		close(s.writerDone)
		return
	}
	sh.served++
	sh.active[s] = struct{}{}
	sh.mu.Unlock()
	go s.writeLoop()
	defer s.teardown()
	for {
		if p.cfg.IdleTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(p.cfg.IdleTimeout)); err != nil {
				p.cfg.Logf("set read deadline: %v", err)
				return
			}
		}
		typ, payload, err := ReadFramePooled(conn)
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
	return s.page.Completed() && len(s.sendq) == 0 && len(s.parked) == 0 &&
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
	for _, it := range s.parked {
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
// goroutine, and any push-budget reservations. It runs exactly once, when
// serve returns, and unregisters the session from its shard.
func (s *session) teardown() {
	if s.crawl != nil {
		// Page timers run for seconds past the last frame; a crawl that
		// outlived its session would keep fetching and pin every body.
		s.crawl.stop()
	}
	s.mu.Lock()
	s.closed = true
	if s.quiet != nil {
		s.quiet.Stop()
		s.quiet = nil
	}
	s.sendCond.Broadcast()
	s.mu.Unlock()
	s.conn.Close()
	<-s.writerDone
	sh := s.shard
	sh.mu.Lock()
	delete(sh.active, s)
	sh.mu.Unlock()
}

// writeLoop is the session's writer goroutine: it drains the send queue onto
// the connection, releases budget reservations as frames leave, and
// re-admits parked (deferred) items as space frees up. On a write error it
// closes the connection so the read side tears the session down.
func (s *session) writeLoop() {
	defer close(s.writerDone)
	for {
		var (
			f       outFrame
			raw     []byte // preassembled mux frame (header included)
			drained int64  // mux body bytes this frame releases
			haveCtl bool
		)
		s.mu.Lock()
		for {
			if s.closed {
				s.drainLocked()
				s.mu.Unlock()
				return
			}
			// Control frames (settings, shed notes, fallback responses) drain
			// ahead of stream data; the TComplete barrier waits for every live
			// stream to finish so completion never overtakes data.
			if len(s.sendq) > 0 {
				f = s.sendq[0]
				s.sendq[0] = outFrame{}
				s.sendq = s.sendq[1:]
				haveCtl = true
				break
			}
			if fr, n, ok := s.mux.nextFrame(); ok {
				raw, drained = fr, int64(n)
				break
			}
			if s.completeNote != nil && s.mux.live == 0 {
				f = outFrame{typ: TComplete, payload: s.completeNote}
				s.completeNote = nil
				haveCtl = true
				break
			}
			s.sendCond.Wait()
		}
		s.mu.Unlock()

		var err error
		if haveCtl {
			err = s.fw.Write(f.typ, f.payload)
		} else {
			// raw lives in the mux scratch buffer; only this goroutine calls
			// nextFrame, so it stays valid across the unlocked write.
			err = s.fw.WriteRaw(raw)
		}

		s.mu.Lock()
		s.releaseQueuedLocked(drained)
		if err != nil {
			s.proxy.cfg.Logf("session write: %v", err)
			s.drainLocked()
			s.mu.Unlock()
			s.conn.Close()
			return
		}
		s.promoteParkedLocked()
		s.mu.Unlock()
	}
}

// releaseQueuedLocked returns n reserved bytes to the session and proxy push
// budgets — the single point where pushq reservations die, as stream chunks
// drain onto the wire or with the session itself.
//
//parcelvet:release pushq
func (s *session) releaseQueuedLocked(n int64) {
	if n <= 0 {
		return
	}
	s.sendqBytes -= n
	s.proxy.queued.Add(-n)
}

// drainLocked releases every remaining reservation of a dying session so the
// proxy-wide budget is never leaked by disconnects.
func (s *session) drainLocked() {
	s.sendq = nil
	s.releaseQueuedLocked(s.mux.drain())
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
	if len(req.Partial) > 0 {
		s.partialOffsets = make(map[string]int64, len(req.Partial))
		for _, po := range req.Partial {
			if po.Bytes > 0 {
				s.partialOffsets[po.URL] = po.Bytes
			}
		}
	}
	// Settings ride the control queue so the client learns the windows
	// before the first stream frame.
	s.enqueueLocked(outFrame{typ: TMuxSettings, payload: s.mux.settingsPayload()})
	// Objects the resume manifest lists are recorded, not re-pushed.
	s.page.StartPage(cfg.Sched, req.Have)
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
// flight, every page timer due after it, nothing parked (the window is the
// parked backlog's time to drain rather than be shed) — the page completes
// now. The proof and the completion share s.mu, so no arrival falls between.
func (s *session) crawlSettled() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.parked) == 0 && s.crawl.quiescent(s.proxy.cfg.QuietPeriod) {
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

// stepLocked carries out what the page session asks for: restart the §4.5
// quiet window, or close the page with its completion note.
func (s *session) stepLocked(st sched.Step) {
	if s.closed {
		return
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
	// Parked items that still cannot be admitted are shed now: the page must
	// terminate with the client knowing everything it has to fetch itself.
	if len(s.parked) > 0 {
		s.shedLocked(s.parked)
		s.parked = nil
	}
	c := s.page.Counts
	err := s.stageNoteLocked(CompleteNote{
		ObjectsPushed:   c.ObjectsPushed,
		BytesPushed:     c.BytesPushed,
		ObjectsSkipped:  c.Skipped,
		ObjectsResumed:  s.resumed,
		ObjectsDeferred: s.deferredSeen,
		ObjectsShed:     s.shedSeen,
		CacheHits:       c.CacheHits,
		CacheMisses:     c.CacheMisses,
		OriginRetries:   c.OriginRetries,
		StaleServes:     c.StaleServes,
		OriginBytes:     c.OriginBytes,
	})
	if err != nil {
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

// admitUntilParkLocked is admission control for one release of the schedule
// (fresh) or for the parked backlog (not fresh): items are admitted in order
// until the first one that has to wait, and the rest park behind it so
// schedule order survives deferral. Only a fresh park counts as a deferral;
// re-parking a backlog is the same deferral continuing.
func (s *session) admitUntilParkLocked(items []sched.Item, fresh bool) {
	if s.closed {
		return
	}
	for i, it := range items {
		if len(s.parked) == 0 && s.admitItemLocked(it) {
			continue
		}
		rest := items[i:]
		s.parked = append(s.parked, rest...)
		if fresh {
			s.deferredSeen += len(rest)
			s.proxy.deferred.Add(int64(len(rest)))
		}
		return
	}
}

// admitItemLocked settles one object against the push budgets: it opens a
// stream for it (reserving its remaining body bytes, which the writer
// releases chunk by chunk) or sheds it to the client's direct-origin path,
// and returns true; or it returns false because the object has to wait for
// this session's own queue to drain. A session with nothing queued never
// waits: within the proxy-wide budget its object is admitted however large
// (one oversized object cannot livelock), and beyond it the object is shed,
// since nothing of this session's will drain to make room.
func (s *session) admitItemLocked(it sched.Item) bool {
	offset := s.partialOffsets[it.URL]
	total := int64(len(it.Body))
	if offset > total {
		offset = total
	}
	rem := it.Body[offset:]
	n := int64(len(rem))
	if b := s.proxy.cfg.SessionPushBudget; b > 0 && s.sendqBytes > 0 && s.sendqBytes+n > b {
		return false
	}
	if !s.proxy.reserve(n) {
		if s.sendqBytes > 0 {
			return false
		}
		s.shedLocked([]sched.Item{it})
		return true
	}
	if offset > 0 {
		// Booked whole at release; the prefix the client holds is not pushed.
		s.resumed++
		s.page.BytesPushed -= offset
		delete(s.partialOffsets, it.URL)
	}
	s.sendqBytes += n
	s.mux.add(it.URL, it.ContentType, it.Status, rem, offset, total)
	s.sendCond.Signal()
	return true
}

// shedLocked records and announces shed objects, and takes them back out of
// the pushes the page session booked when it released them.
func (s *session) shedLocked(items []sched.Item) {
	urls := make([]string, len(items))
	for i, it := range items {
		urls[i] = it.URL
		s.page.BytesPushed -= int64(len(it.Body))
	}
	s.page.ObjectsPushed -= len(items)
	s.shedSeen += len(items)
	s.proxy.shedTotal.Add(int64(len(items)))
	if err := s.enqueueJSONLocked(TShed, ShedNote{URLs: urls}); err != nil {
		// The client would wait on pushes that never come instead of
		// fetching the shed objects itself; tear the session down.
		s.proxy.cfg.Logf("%v", err)
		s.conn.Close()
	}
}

// promoteParkedLocked re-admits the parked backlog once the queue has drained
// below half the session budget, so a long backlog refills the queue
// incrementally; an empty queue admits unconditionally, so parked items
// always make progress once the client catches up.
func (s *session) promoteParkedLocked() {
	if len(s.parked) == 0 {
		return
	}
	if b := s.proxy.cfg.SessionPushBudget; b > 0 && s.sendqBytes > 0 && s.sendqBytes >= b/2 {
		return
	}
	items := s.parked
	s.parked = nil
	s.admitUntilParkLocked(items, false)
}

// serveFallback answers a missing-object request. The body is re-resolved
// through the shared cache (a hit for anything recently pushed); only a
// recorded error status is answered from the session's view alone.
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
		s.mu.Lock()
		s.storeLocked(obj)
		s.mu.Unlock()
	}
	enc := mhtml.Encode([]mhtml.Part{{URL: obj.URL, ContentType: obj.ContentType, Status: obj.Status, Body: obj.Body}})
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.enqueueLocked(outFrame{typ: TObjectResponse, payload: enc})
	s.mu.Unlock()
}

package parcelnet

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"github.com/parcel-go/parcel/internal/metrics"
	"github.com/parcel-go/parcel/internal/sched"
)

// ErrClosed is returned by Object and WaitComplete after the client itself
// was closed — distinct from a timeout, so callers can tell "you hung up"
// from "the object never arrived".
var ErrClosed = errors.New("parcelnet: client closed")

// ErrProxyGone is returned when the proxy connection died and the retry
// budget was exhausted without a configured direct-origin fallback.
var ErrProxyGone = errors.New("parcelnet: proxy connection lost")

// dialTimeout bounds each attempt of the built-in dialer; custom
// ClientConfig.Dial funcs own their timeouts.
const dialTimeout = 5 * time.Second

// ClientConfig tunes connection recovery. The zero value gives sensible
// defaults: 3 reconnect attempts with 50 ms–2 s jittered exponential backoff,
// and no direct-origin fallback.
type ClientConfig struct {
	// Dial overrides net.Dial (e.g. a netem-shaping dialer). When nil,
	// connections use net.DialTimeout with dialTimeout (5 s).
	Dial func(network, addr string) (net.Conn, error)
	// MaxRetries is the reconnect budget after the proxy connection drops
	// mid-page (default 3; negative disables reconnection entirely).
	MaxRetries int
	// BackoffBase and BackoffMax bound the jittered exponential backoff
	// between reconnect attempts (defaults 50 ms and 2 s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed seeds the backoff jitter so recovery replays deterministically
	// (default 1).
	Seed int64
	// DirectOrigin, when set, is the replay origin address of the client's
	// direct path: objects the proxy cannot see into (sched.Direct) and shed
	// objects are fetched there, and the client degrades to it once the retry
	// budget is spent (the page completes in DIR mode). Without it a
	// sched.Direct object cannot be fetched at all.
	DirectOrigin string
	// Mux is inert and read by no code: streams are the only wire format. It
	// stays declared because bench/ sets it and only a benchmark PR may edit
	// bench/ (ROADMAP item 2(2) removes both).
	Mux bool
	// Logf, when set, receives recovery diagnostics.
	Logf func(format string, args ...any)
}

func (cfg *ClientConfig) fillDefaults() {
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax == 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
}

// Client is the real-network PARCEL client: it opens the single proxy
// connection, sends the page request, reassembles pushed streams into a local
// object store, and requests still-missing objects after the proxy's
// completion notification (§4.5). If the proxy connection drops mid-page the
// client reconnects with backoff and resumes the session (re-sending the
// request with a manifest of the objects, and the prefixes of half-received
// objects, it already holds); once the retry budget is spent it degrades to
// fetching directly from the origin when ClientConfig.DirectOrigin is set.
// Rendering/JS execution is up to the embedding application (the simulation
// packages model it; a real deployment would hand the store to a WebView,
// §5.2).
type Client struct {
	addr string
	cfg  ClientConfig

	mu       sync.Mutex
	cond     *sync.Cond
	conn     net.Conn // current connection; compared by readLoop for staleness
	fw       *FrameWriter
	store    map[string]Object
	order    []string
	page     *PageRequest // active page, kept for session resume
	notified bool
	note     CompleteNote
	shed     map[string]bool // URLs the proxy's admission control shed to us
	rerr     error
	closed   bool
	degraded bool
	direct   *OriginFetcher
	rng      *rand.Rand // backoff jitter; touched only by the reconnect goroutine
	// asm reassembles mux streams on the current connection; partials carries
	// incomplete stream bodies across reconnects so the next connection can
	// resume each object at its offset instead of resending the prefix.
	asm      *muxAssembler
	partials map[string][]byte

	// BytesReceived counts stream payload bytes received.
	BytesReceived int64
	// Fallbacks counts missing-object requests: to the proxy, or straight to
	// the origin (DirectFetches).
	Fallbacks int
	// Resumes counts successful session resumes after a reconnect.
	Resumes int
	// Retries counts reconnect dial attempts.
	Retries int
	// DirectFetches counts objects fetched over the direct path: sched.Direct
	// and shed objects, and every object once degraded.
	DirectFetches int
	// ShedReceived counts objects the proxy announced it would not push
	// (admission control shed them); the client fetches those itself.
	ShedReceived int
	// PartialResumes counts objects completed from a mid-stream resume (the
	// reconnect manifest carried a nonzero offset for them).
	PartialResumes int
	// Drained counts TDrain notices received: the proxy asked this session to
	// move off while it shut down, handing back a resume manifest.
	Drained int
	// FallbackWriteErrors counts fallback TObjectRequest writes that failed —
	// requests the proxy never saw. The fleet tests gate on this so silent
	// fallback failures cannot pass as healthy runs.
	FallbackWriteErrors int

	// FirstAt and CompleteAt are wall-clock milestones. FirstCriticalAt is
	// when the first critical-class object (HTML/CSS/JS — the render-blocking
	// set) landed; the mux layer exists to pull it forward.
	startedAt       time.Time
	FirstAt         time.Time
	FirstCriticalAt time.Time
	CompleteAt      time.Time
}

// Dial connects to a PARCEL proxy. dial may be nil (plain net.Dial) or a
// shaping dialer (e.g. one that wraps the conn with netem).
func Dial(addr string, dial func(network, addr string) (net.Conn, error)) (*Client, error) {
	return DialConfig(addr, ClientConfig{Dial: dial})
}

// DialConfig connects to a PARCEL proxy with explicit recovery settings.
func DialConfig(addr string, cfg ClientConfig) (*Client, error) {
	cfg.fillDefaults()
	c := &Client{
		addr:  addr,
		cfg:   cfg,
		store: make(map[string]Object),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	c.asm = newMuxAssembler(c.partialHeld)
	c.cond = sync.NewCond(&c.mu)
	conn, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.conn = conn
	c.fw = NewFrameWriter(conn)
	go c.readLoop(conn)
	return c, nil
}

func (c *Client) dial() (net.Conn, error) {
	if c.cfg.Dial != nil {
		return c.cfg.Dial("tcp", c.addr)
	}
	return net.DialTimeout("tcp", c.addr, dialTimeout)
}

// Close closes the proxy connection. Blocked Object/WaitComplete callers
// return ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	if c.rerr == nil {
		c.rerr = ErrClosed
	}
	conn := c.conn
	c.cond.Broadcast()
	c.mu.Unlock()
	return conn.Close()
}

// Degraded reports whether the client fell back to direct-origin fetching.
func (c *Client) Degraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degraded
}

// RequestPage asks the proxy to load url on the client's behalf.
func (c *Client) RequestPage(url, userAgent, screen string) error {
	req := PageRequest{URL: url, UserAgent: userAgent, Screen: screen}
	c.mu.Lock()
	c.startedAt = time.Now()
	c.page = &req
	fw := c.fw
	c.mu.Unlock()
	return fw.WriteJSON(TPageRequest, req)
}

// partialHeld is the assembler's resume source: the bytes already held for a
// URL whose stream the proxy reopened at an offset. Called with c.mu held
// (the read loop drives the assembler under the client lock).
func (c *Client) partialHeld(url string) []byte { return c.partials[url] }

func (c *Client) readLoop(conn net.Conn) {
	for {
		// Pooled reads: every branch below copies what it keeps (json.Unmarshal
		// copies, the mux assembler appends chunks into its own buffers), so
		// the payload is recycled at the end of the iteration.
		typ, payload, err := ReadFramePooled(conn)
		if err != nil {
			c.onDisconnect(conn, err)
			return
		}
		fatal := c.handleClientFrame(typ, payload)
		ReleaseFrameBuf(payload)
		if fatal {
			return
		}
	}
}

// handleClientFrame dispatches one inbound frame; it must not retain payload
// (the read loop recycles it). It returns true on a fatal protocol error.
func (c *Client) handleClientFrame(typ byte, payload []byte) bool {
	switch typ {
	case TMuxSettings:
		c.mu.Lock()
		err := c.asm.onSettings(payload)
		c.mu.Unlock()
		if err != nil {
			c.fail(err)
			return true
		}
	case TStreamOpen:
		c.mu.Lock()
		c.BytesReceived += int64(len(payload))
		part, err := c.asm.onOpen(payload)
		if part != nil {
			c.deliverPartLocked(part)
		}
		c.mu.Unlock()
		if err != nil {
			c.fail(err)
			return true
		}
	case TStreamData:
		c.mu.Lock()
		c.BytesReceived += int64(len(payload))
		part, acks, err := c.asm.onData(payload)
		if part != nil {
			c.deliverPartLocked(part)
		}
		fw := c.fw
		c.mu.Unlock()
		if err != nil {
			c.fail(err)
			return true
		}
		for _, a := range acks {
			if werr := fw.WriteWindowUpdate(a.id, a.inc); werr != nil {
				// The read side will see the broken connection and drive
				// recovery; the lost credit dies with the connection.
				c.cfg.Logf("window update failed: %v", werr)
				break
			}
		}
	case TShed:
		var note ShedNote
		if err := json.Unmarshal(payload, &note); err != nil {
			c.cfg.Logf("bad shed note: %v", err)
			return false
		}
		c.mu.Lock()
		if c.shed == nil {
			c.shed = make(map[string]bool)
		}
		for _, u := range note.URLs {
			c.shed[u] = true
		}
		c.ShedReceived += len(note.URLs)
		eager := c.cfg.DirectOrigin != "" && !c.closed
		c.cond.Broadcast()
		c.mu.Unlock()
		if eager {
			// Recover the push benefit we lost: start fetching shed objects
			// before the page asks for them.
			go c.fetchShed(note.URLs)
		}
	case TDrain:
		var note DrainNote
		if err := json.Unmarshal(payload, &note); err != nil {
			c.cfg.Logf("bad drain note: %v", err)
		}
		c.mu.Lock()
		c.Drained++
		if c.notified {
			// The page already completed; there is nothing to resume. Flagging
			// degraded keeps the dying connection from reading as a failure and
			// routes any later missing-object fetch to the direct-origin path.
			c.degraded = true
		}
		conn := c.conn
		c.mu.Unlock()
		c.cfg.Logf("proxy draining (%d objects pending); recovering", len(note.Pending))
		// Closing our side sends the read loop through the standard disconnect
		// path: harvest partial streams, reconnect with the resume manifest,
		// or fall back to the direct origin once the budget is spent.
		conn.Close()
	case TComplete:
		var note CompleteNote
		err := json.Unmarshal(payload, &note)
		c.mu.Lock()
		if err == nil {
			c.note = note
		}
		c.notified = true
		c.CompleteAt = time.Now()
		c.cond.Broadcast()
		c.mu.Unlock()
	}
	return false
}

// deliverPartLocked lands one reassembled mux object in the store.
func (c *Client) deliverPartLocked(p *muxPart) {
	if c.FirstAt.IsZero() {
		c.FirstAt = time.Now()
	}
	if p.Class == muxClassCritical && c.FirstCriticalAt.IsZero() {
		c.FirstCriticalAt = time.Now()
	}
	if p.Resumed {
		c.PartialResumes++
		delete(c.partials, p.URL)
	}
	c.storeLocked(Object{URL: p.URL, ContentType: p.ContentType, Status: p.Status, Body: p.Body})
}

// storeLocked lands one object in the store — a push, a fallback answer or a
// direct fetch alike — and wakes its waiters; Objects lists each URL once, in
// first-arrival order.
func (c *Client) storeLocked(p Object) {
	if _, dup := c.store[p.URL]; !dup {
		c.order = append(c.order, p.URL)
	}
	c.store[p.URL] = p
	c.cond.Broadcast()
}

// fail records a fatal protocol error and wakes waiters.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.rerr == nil {
		c.rerr = err
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// onDisconnect decides what a dead connection means: nothing (stale
// generation or client closed), a fatal error (no page in flight), or a
// recovery attempt (reconnect with backoff, then degrade or die).
func (c *Client) onDisconnect(conn net.Conn, err error) {
	c.mu.Lock()
	if c.conn != conn || c.closed || c.degraded {
		c.mu.Unlock()
		return
	}
	// Harvest the dead connection's half-received streams into the resume
	// state before anything else: whatever bytes made it across are kept, and
	// the next connection's manifest asks for the rest of each object.
	// A fresh assembler serves the next connection (HPACK tables reset with it).
	if held := c.asm.partials(); len(held) > 0 {
		if c.partials == nil {
			c.partials = make(map[string][]byte, len(held))
		}
		for u, b := range held {
			c.partials[u] = b
		}
	}
	c.asm = newMuxAssembler(c.partialHeld)
	if c.page == nil || c.notified || c.cfg.MaxRetries < 0 {
		// No page in flight (or it already completed): nothing to resume.
		if c.rerr == nil {
			c.rerr = fmt.Errorf("%w: %v", ErrProxyGone, err)
		}
		c.cond.Broadcast()
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	c.cfg.Logf("proxy connection lost mid-page (%v); reconnecting", err)
	go c.reconnect(conn)
}

// reconnect retries the proxy with jittered exponential backoff, resuming
// the session on success and degrading (or failing) when the budget is spent.
func (c *Client) reconnect(dead net.Conn) {
	for attempt := 0; attempt < c.cfg.MaxRetries; attempt++ {
		time.Sleep(c.backoff(attempt))
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		c.Retries++
		c.mu.Unlock()
		conn, err := c.dial()
		if err != nil {
			c.cfg.Logf("reconnect attempt %d: %v", attempt+1, err)
			continue
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		req := *c.page
		req.Have = make([]string, 0, len(c.store))
		for u := range c.store {
			req.Have = append(req.Have, u)
		}
		sort.Strings(req.Have)
		// Extend the manifest with half-received objects: the proxy reopens
		// each stream at the recorded offset.
		req.Partial = nil
		for u, b := range c.partials {
			if _, done := c.store[u]; !done && len(b) > 0 {
				req.Partial = append(req.Partial, sched.Partial{URL: u, Bytes: int64(len(b))})
			}
		}
		sort.Slice(req.Partial, func(i, j int) bool { return req.Partial[i].URL < req.Partial[j].URL })
		c.conn = conn
		c.fw = NewFrameWriter(conn)
		fw := c.fw
		c.mu.Unlock()
		if err := fw.WriteJSON(TPageRequest, req); err != nil {
			c.cfg.Logf("resume request failed: %v", err)
			conn.Close()
			continue
		}
		c.mu.Lock()
		c.Resumes++
		c.mu.Unlock()
		c.cfg.Logf("session resumed with %d objects already held", len(req.Have))
		go c.readLoop(conn)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if c.cfg.DirectOrigin != "" {
		// Graceful degradation: the page finishes in DIR mode. Completion is
		// declared so Object() falls straight through to direct fetches.
		c.degraded = true
		c.notified = true
		if c.CompleteAt.IsZero() {
			c.CompleteAt = time.Now()
		}
		c.cfg.Logf("retry budget spent; degrading to direct origin %s", c.cfg.DirectOrigin)
	} else if c.rerr == nil {
		c.rerr = fmt.Errorf("%w after %d retries", ErrProxyGone, c.cfg.MaxRetries)
	}
	c.cond.Broadcast()
}

// backoff returns the jittered exponential delay before reconnect attempt n.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.BackoffBase << uint(attempt)
	if d > c.cfg.BackoffMax || d <= 0 {
		d = c.cfg.BackoffMax
	}
	// Half fixed, half jitter: avoids thundering herds while keeping the
	// delay within [d/2, d].
	half := int64(d / 2)
	return time.Duration(half + c.rng.Int63n(half+1))
}

// fetchDirect retrieves url straight from the configured origin (DIR mode)
// and stores it.
func (c *Client) fetchDirect(url string) (Object, error) {
	c.mu.Lock()
	if c.direct == nil {
		c.direct = NewOriginFetcher(c.cfg.DirectOrigin)
	}
	f := c.direct
	c.Fallbacks++
	c.DirectFetches++
	c.mu.Unlock()
	body, ct, status, err := f.Fetch(url)
	if err != nil {
		return Object{}, fmt.Errorf("parcelnet: direct fetch %s: %w", url, err)
	}
	p := Object{URL: url, ContentType: ct, Status: status, Body: body}
	c.mu.Lock()
	c.storeLocked(p)
	c.mu.Unlock()
	return p, nil
}

// requestLocked asks the proxy for url (§4.5); the answer arrives as a
// stream. A write that fails is counted: the read loop sees the broken
// connection and drives recovery.
func (c *Client) requestLocked(url string) {
	c.Fallbacks++
	fw := c.fw
	go func() {
		if err := fw.WriteJSON(TObjectRequest, ObjectRequest{URL: url}); err != nil {
			c.noteFallbackWriteError("object request for %s failed: %v", url, err)
		}
	}()
}

// noteFallbackWriteError counts a fallback request that never reached the
// proxy (the write failed) and logs it. The counter is surfaced through
// SessionLoad so load generators can gate on silent fallback failures.
func (c *Client) noteFallbackWriteError(format string, args ...any) {
	c.mu.Lock()
	c.FallbackWriteErrors++
	c.cond.Broadcast()
	c.mu.Unlock()
	c.cfg.Logf(format, args...)
}

// fetchShed lands shed objects in the background, as the page would ask for
// them (Object fetches them from the origin), so they are resident by the
// time it does: DIR semantics for just those objects, not the whole page.
func (c *Client) fetchShed(urls []string) {
	for _, u := range urls {
		if _, err := c.Object(u, 0); err != nil {
			c.cfg.Logf("shed fetch %s: %v", u, err)
		}
	}
}

// Object returns the named object, waiting for it to be pushed. If the
// completion notification has arrived and the object is still missing, a
// fallback request is sent to the proxy (once). Objects the proxy cannot see
// into (sched.Direct), shed objects when there is a direct path, and every
// object in degraded mode are fetched directly from the origin; without a
// direct path a sched.Direct object fails at once. Object fails after
// timeout; a dead client fails immediately with ErrClosed or ErrProxyGone
// instead. The received objects outlive the connection: one that arrived
// before Close, or before the proxy was lost, is returned with a nil error.
func (c *Client) Object(url string, timeout time.Duration) (Object, error) {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer timer.Stop()

	c.mu.Lock()
	defer c.mu.Unlock()
	requested := false
	for {
		if p, ok := c.store[url]; ok {
			return p, nil
		}
		if c.rerr != nil {
			return Object{}, c.rerr
		}
		if sched.Direct(url) || c.degraded || c.shed[url] && c.cfg.DirectOrigin != "" {
			if c.cfg.DirectOrigin == "" {
				return Object{}, fmt.Errorf("parcelnet: %s needs a direct fetch and the client has no direct path (ClientConfig.DirectOrigin)", url)
			}
			c.mu.Unlock()
			p, err := c.fetchDirect(url)
			c.mu.Lock()
			return p, err
		}
		// A shed object will never be pushed, and anything missing after
		// completion will not be either: ask the proxy for it.
		if (c.shed[url] || c.notified) && !requested {
			requested = true
			c.requestLocked(url)
		}
		if time.Now().After(deadline) {
			return Object{}, fmt.Errorf("parcelnet: timeout waiting for %s", url)
		}
		c.cond.Wait()
	}
}

// WaitComplete blocks until the proxy's completion notification (or timeout).
// A degraded client reports completion immediately; a dead client returns
// ErrClosed or ErrProxyGone instead of waiting out the timeout, unless the
// notification had already arrived.
func (c *Client) WaitComplete(timeout time.Duration) (CompleteNote, error) {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer timer.Stop()

	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.notified {
		if c.rerr != nil {
			return CompleteNote{}, c.rerr
		}
		if time.Now().After(deadline) {
			return CompleteNote{}, fmt.Errorf("parcelnet: timeout waiting for completion")
		}
		c.cond.Wait()
	}
	return c.note, nil
}

// Objects returns the URLs received so far, in arrival order.
func (c *Client) Objects() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.order...)
}

// Has reports whether url has been received.
func (c *Client) Has(url string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.store[url]
	return ok
}

// SessionLoad snapshots this client's page load as one fleet sample: latency
// to the completion notification, push/cache counters from the proxy's
// CompleteNote, and the bytes that crossed the proxy→client link (egress).
func (c *Client) SessionLoad(id int) metrics.SessionLoad {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := metrics.NoteLoad(c.note.Counts)
	l.ID, l.Completed, l.EgressBytes = id, c.notified && c.rerr == nil, c.BytesReceived
	l.FallbackWriteErrors, l.Retries, l.Drained = c.FallbackWriteErrors, l.Retries+c.Retries, c.Drained > 0
	if c.page != nil {
		l.Page = c.page.URL
	}
	if !c.startedAt.IsZero() && !c.CompleteAt.IsZero() {
		l.Latency = c.CompleteAt.Sub(c.startedAt)
	}
	if !c.startedAt.IsZero() && !c.FirstCriticalAt.IsZero() {
		l.FirstCritical = c.FirstCriticalAt.Sub(c.startedAt)
	}
	return l
}

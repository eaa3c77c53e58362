package parcelnet

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/parcel-go/parcel/internal/metrics"
	"github.com/parcel-go/parcel/internal/resilience"
	"github.com/parcel-go/parcel/internal/sched"
)

// ErrClosed is returned by Object and WaitComplete after the client itself
// was closed: "you hung up", not "the object never arrived".
var ErrClosed = errors.New("parcelnet: client closed")

// ErrProxyGone is returned when the proxy connection died and the retry
// budget was exhausted without a configured direct-origin fallback.
var ErrProxyGone = errors.New("parcelnet: proxy connection lost")

// errDrainNotice is the disconnect cause after a TDrain notice.
var errDrainNotice = errors.New("parcelnet: proxy drained the session")

// dialTimeout bounds each attempt of the built-in dialer.
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
	// bench/ (ROADMAP item 4(3) removes both).
	Mux bool
	// Logf, when set, receives recovery diagnostics, sometimes under the
	// client's lock: it must not call back into the Client.
	Logf func(format string, args ...any)
}

func (cfg *ClientConfig) fillDefaults() {
	cfg.MaxRetries = cmp.Or(cfg.MaxRetries, 3)
	cfg.Seed = cmp.Or(cfg.Seed, 1)
	if cfg.Dial == nil {
		cfg.Dial = func(network, addr string) (net.Conn, error) { return net.DialTimeout(network, addr, dialTimeout) }
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
}

// Client is the real-network PARCEL client: it sends the page request on one
// proxy connection, reassembles pushed streams and drives sched.ClientSession
// with them under its mutex. It keeps the conn, the stream assembler, the
// reconnect with backoff (then DIR mode, with ClientConfig.DirectOrigin set)
// and the origin fetcher. The session's counters and Timeline read as the
// Client's fields; its input methods are the driver's, called with the mutex
// held. Rendering is the embedding application's (a WebView would render
// from the store, §5.2).
type Client struct {
	sched.ClientSession
	addr string
	cfg  ClientConfig

	mu     sync.Mutex
	cond   *sync.Cond
	conn   net.Conn // current connection; compared by readLoop for staleness
	fw     *FrameWriter
	asm    *muxAssembler // reassembles the current connection's streams
	page   *PageRequest  // active page, kept for session resume
	rerr   error
	closed bool
	direct *OriginFetcher // nil: no direct path
	rng    *rand.Rand     // backoff jitter; touched only by the reconnect goroutine
}

var clock = time.Now() // the zero of the durations the client feeds its session

func now() time.Duration { return time.Since(clock) }

// Dial connects to a PARCEL proxy. dial may be nil (plain net.Dial) or a
// shaping dialer (e.g. one that wraps the conn with netem).
func Dial(addr string, dial func(network, addr string) (net.Conn, error)) (*Client, error) {
	return DialConfig(addr, ClientConfig{Dial: dial})
}

// DialConfig connects to a PARCEL proxy with explicit recovery settings.
func DialConfig(addr string, cfg ClientConfig) (*Client, error) {
	cfg.fillDefaults()
	c := &Client{
		ClientSession: sched.NewClientSession(cfg.DirectOrigin != "", 0),
		addr:          addr,
		cfg:           cfg,
		rng:           rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.DirectOrigin != "" {
		c.direct = NewOriginFetcher(cfg.DirectOrigin)
	}
	c.asm = newMuxAssembler(c.Held)
	c.cond = sync.NewCond(&c.mu)
	conn, err := cfg.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c.conn, c.fw = conn, NewFrameWriter(conn)
	go c.readLoop(conn)
	return c, nil
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
	c.failLocked(ErrClosed)
	conn := c.conn
	c.mu.Unlock()
	return conn.Close()
}

// Degraded reports whether the client fell back to direct-origin fetching.
func (c *Client) Degraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ClientSession.Degraded()
}

// RequestPage asks the proxy to load url on the client's behalf.
func (c *Client) RequestPage(url, userAgent, screen string) error {
	req := PageRequest{URL: url, UserAgent: userAgent, Screen: screen}
	c.mu.Lock()
	c.Start(url, now())
	c.page = &req
	fw := c.fw
	c.mu.Unlock()
	return fw.WriteJSON(TPageRequest, req)
}

func (c *Client) readLoop(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64<<10) // a socket read takes a whole batch
	for {
		// Pooled reads: every branch below copies what it keeps, so the
		// payload is recycled at the end of the iteration.
		typ, payload, err := ReadFramePooled(br)
		if err != nil {
			c.onDisconnect(conn, err)
			return
		}
		acks, ferr := c.handleClientFrame(typ, payload)
		ReleaseFrameBuf(payload)
		for _, a := range acks {
			if werr := c.fw.WriteWindowUpdate(a.id, a.inc); werr != nil {
				// The credit dies with the connection the read side sees break.
				c.cfg.Logf("window update failed: %v", werr)
				break
			}
		}
		if ferr != nil {
			c.mu.Lock()
			c.failLocked(ferr)
			c.mu.Unlock()
			return
		}
		if typ == TDrain {
			// Nothing buffered behind the notice is read: a TComplete there
			// would complete the page on a connection that reads as lost.
			c.onDisconnect(conn, errDrainNotice)
			return
		}
	}
}

// handleClientFrame dispatches one inbound frame without retaining payload.
// It returns the window credits the frame earned and a fatal protocol error.
func (c *Client) handleClientFrame(typ byte, payload []byte) ([]windowAck, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch typ {
	case TMuxSettings:
		return nil, c.asm.onSettings(payload)
	case TStreamOpen:
		c.BytesReceived += int64(len(payload))
		it, err := c.asm.onOpen(payload)
		c.receivedLocked(it)
		return nil, err
	case TStreamData:
		c.BytesReceived += int64(len(payload))
		it, acks, err := c.asm.onData(payload)
		c.receivedLocked(it)
		return acks, err
	case TShed:
		var note ShedNote
		if err := json.Unmarshal(payload, &note); err != nil {
			c.cfg.Logf("bad shed note: %v", err)
			return nil, nil
		}
		c.stepLocked(c.Shed(note.URLs))
	case TDrain:
		var note DrainNote
		if err := json.Unmarshal(payload, &note); err != nil {
			c.cfg.Logf("bad drain note: %v", err)
		}
		c.Drained++
		if c.Completed() {
			// Nothing to resume: what the page still wants comes over the
			// direct path, or, without one, fails as the proxy being gone.
			c.Degrade(now())
		}
		c.cfg.Logf("proxy draining (%d objects pending); recovering", len(note.Pending))
		c.conn.Close() // the read loop then takes the disconnect path
	case TComplete:
		var note CompleteNote
		if err := json.Unmarshal(payload, &note); err != nil {
			c.cfg.Logf("bad completion note: %v", err)
		}
		c.stepLocked(c.Complete(note.Counts, now()))
	}
	return nil, nil
}

// receivedLocked lands a completed stream, if any.
func (c *Client) receivedLocked(it *sched.Item) {
	if it != nil {
		c.Received(*it, now())
		c.cond.Broadcast()
	}
}

// stepLocked carries out a session step (direct fetches in the background,
// none once closed) and wakes the waiters.
func (c *Client) stepLocked(st sched.ClientStep) {
	c.requestLocked(st.Request)
	if len(st.Direct) > 0 && !c.closed {
		go func() {
			for _, u := range st.Direct {
				if err := c.fetchDirect(u); err != nil {
					c.cfg.Logf("%v", err)
				}
			}
		}()
	}
	c.cond.Broadcast()
}

// requestLocked asks the proxy for urls (§4.5); answers arrive as streams. A
// failed write is counted; the read loop sees the broken connection.
func (c *Client) requestLocked(urls []string) {
	if len(urls) == 0 {
		return
	}
	fw := c.fw
	go func() {
		for _, u := range urls {
			if err := fw.WriteJSON(TObjectRequest, ObjectRequest{URL: u}); err != nil {
				c.noteFallbackWriteError(u, err)
			}
		}
	}()
}

// noteFallbackWriteError counts a proxy request the proxy never saw.
func (c *Client) noteFallbackWriteError(url string, err error) {
	c.mu.Lock()
	c.FallbackWriteErrors++
	c.mu.Unlock()
	c.cfg.Logf("object request for %s failed: %v", url, err)
}

// failLocked records the error that ends the client and wakes waiters.
func (c *Client) failLocked(err error) {
	if c.rerr == nil {
		c.rerr = err
	}
	c.cond.Broadcast()
}

// onDisconnect decides what a dead connection means: nothing (stale, closed
// or degraded), the end (no page in flight, or it completed), or a reconnect.
// Its cut streams join the resume manifest; a fresh assembler (and HPACK
// table) serves the next connection.
func (c *Client) onDisconnect(conn net.Conn, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != conn || c.closed || c.ClientSession.Degraded() {
		return
	}
	c.Disconnected(c.asm.partials())
	c.asm = newMuxAssembler(c.Held)
	if c.page == nil || c.Completed() || c.cfg.MaxRetries < 0 {
		c.failLocked(fmt.Errorf("%w: %v", ErrProxyGone, err))
		return
	}
	c.cfg.Logf("proxy connection lost mid-page (%v); reconnecting", err)
	go c.reconnect()
}

// reconnect retries the proxy with jittered exponential backoff, resuming
// the session on success and degrading (or failing) when the budget is spent.
func (c *Client) reconnect() {
	retry := resilience.Policy{BackoffBase: c.cfg.BackoffBase, BackoffMax: c.cfg.BackoffMax}.WithDefaults()
	for attempt := 0; attempt < c.cfg.MaxRetries; attempt++ {
		time.Sleep(retry.Backoff(attempt+1, c.rng))
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		c.Retries++
		c.mu.Unlock()
		conn, err := c.cfg.Dial("tcp", c.addr)
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
		req.Have, req.Partial = c.Manifest()
		c.conn, c.fw = conn, NewFrameWriter(conn)
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
	if c.Degrade(now()) { // the page finishes in DIR mode
		c.cfg.Logf("retry budget spent; degrading to direct origin %s", c.cfg.DirectOrigin)
		c.cond.Broadcast()
	} else {
		c.failLocked(fmt.Errorf("%w after %d retries", ErrProxyGone, c.cfg.MaxRetries))
	}
}

// fetchDirect fetches url from the direct origin, as the session asked.
func (c *Client) fetchDirect(url string) error {
	body, ct, status, err := c.direct.Fetch(url)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Fetched(sched.Item{URL: url, ContentType: ct, Status: status, Body: body, ArrivedAt: now()}, err == nil)
	c.cond.Broadcast()
	if err != nil {
		return fmt.Errorf("parcelnet: direct fetch %s: %w", url, err)
	}
	return nil
}

// Object returns the named object, waiting for it to be pushed and carrying
// out what the session asks on the way (a proxy request, a direct fetch). It
// fails after timeout, or at once with no direct path for a sched.Direct
// object or with ErrClosed or ErrProxyGone on a dead client that lacks it.
func (c *Client) Object(url string, timeout time.Duration) (sched.Item, error) {
	deadline := time.Now().Add(timeout)
	defer c.wakeAfter(timeout).Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		it, act := c.Want(url)
		switch {
		case act == sched.Deliver:
			return it, nil
		case c.rerr != nil:
			return sched.Item{}, c.rerr
		case act == sched.NoDirectPath:
			return sched.Item{}, fmt.Errorf("parcelnet: %s needs a direct fetch and the client has no direct path (ClientConfig.DirectOrigin)", url)
		case act == sched.Request:
			c.requestLocked([]string{url})
		case act == sched.FetchDirect:
			c.mu.Unlock()
			err := c.fetchDirect(url)
			c.mu.Lock()
			if err != nil {
				return sched.Item{}, err
			}
			continue
		}
		if time.Now().After(deadline) {
			return sched.Item{}, fmt.Errorf("parcelnet: timeout waiting for %s", url)
		}
		c.cond.Wait()
	}
}

// WaitComplete blocks until the page completes at the client (or timeout):
// the completion notification has come, or the client degraded, and every
// direct fetch under way then — the objects the proxy shed, say — has
// finished (Timeline.Complete). A dead client without the notification
// fails at once.
func (c *Client) WaitComplete(timeout time.Duration) (CompleteNote, error) {
	deadline := time.Now().Add(timeout)
	defer c.wakeAfter(timeout).Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.Timeline.Complete == 0 {
		if c.rerr != nil && !c.Completed() {
			return CompleteNote{}, c.rerr
		}
		if time.Now().After(deadline) {
			return CompleteNote{}, fmt.Errorf("parcelnet: timeout waiting for completion")
		}
		c.cond.Wait()
	}
	return CompleteNote{c.Note()}, nil
}

// wakeAfter wakes the waiters once timeout has passed.
func (c *Client) wakeAfter(timeout time.Duration) *time.Timer {
	return time.AfterFunc(timeout, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
}

// Objects returns the URLs received so far, in arrival order.
func (c *Client) Objects() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ClientSession.Objects()
}

// Has reports whether url has been received.
func (c *Client) Has(url string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ClientSession.Has(url)
}

// SessionLoad snapshots this client's page load as one fleet sample.
func (c *Client) SessionLoad(id int) metrics.SessionLoad {
	c.mu.Lock()
	defer c.mu.Unlock()
	return metrics.ClientLoad(id, &c.ClientSession)
}

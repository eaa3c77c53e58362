// Package httpsim layers HTTP/1.1 request–response semantics over the simnet
// TCP model: origin servers that serve objects from a store, and clients with
// per-domain persistent-connection pools (the "6 connections per domain" a
// traditional browser uses, §8.1), DNS resolution, and one outstanding
// request per connection (no pipelining — the limitation PARCEL sidesteps).
package httpsim

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"github.com/parcel-go/parcel/internal/dnssim"
	"github.com/parcel-go/parcel/internal/eventsim"
	"github.com/parcel-go/parcel/internal/simnet"
)

const (
	// requestOverhead approximates HTTP request-line + header bytes.
	requestOverhead = 350
	// responseOverhead approximates HTTP status-line + header bytes.
	responseOverhead = 320
)

// Request is an HTTP request in flight.
type Request struct {
	Method   string
	URL      string // absolute: http://domain/path
	BodySize int    // POST body bytes (0 for GET)
}

// WireSize is the bytes the request occupies on the wire.
func (r Request) WireSize() int { return requestOverhead + len(r.URL) + r.BodySize }

// Response is an HTTP response.
type Response struct {
	Status      int
	URL         string
	ContentType string
	Body        []byte // actual content; parsers consume this
	// Validator is the stored object's recorded validator (ETag), empty when
	// the store recorded none. Consumers that cache the response call ETag;
	// nothing else reads a validator, so uncached loads never hash.
	Validator string
	pin       *validatorPin // the stored object's; nil for error responses
}

// ETag returns the response's content validator: the recorded one, else the
// served object's ContentValidator (see Object.ETag).
func (r Response) ETag() string { return etag(r.Validator, r.pin, r.Body) }

// WireSize is the bytes the response occupies on the wire.
func (r Response) WireSize() int { return responseOverhead + len(r.Body) }

// SplitURL returns the domain and path of an absolute http(s) URL. It panics
// on malformed URLs: every URL in the system is machine-generated, so a bad
// one is a generator or parser bug.
func SplitURL(url string) (domain, path string) {
	domain, path, _ = SplitURLScheme(url)
	return domain, path
}

// SplitURLScheme additionally reports whether the URL is https.
func SplitURLScheme(url string) (domain, path string, tls bool) {
	rest, ok := strings.CutPrefix(url, "http://")
	if !ok {
		rest, ok = strings.CutPrefix(url, "https://")
		if !ok {
			panic(fmt.Sprintf("httpsim: non-absolute URL %q", url))
		}
		tls = true
	}
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		return rest, "/", tls
	}
	return rest[:slash], rest[slash:], tls
}

// Object is stored origin content.
type Object struct {
	URL         string
	ContentType string
	Body        []byte
	Status      int // 0 means 200
	// Validator optionally records the object's validator (a captured ETag).
	// Empty means ETag derives one from the body.
	Validator string
	pin       *validatorPin // set by Pinned; shared by every copy
}

// validatorPin memoises ContentValidator for one immutable body. Racing
// first callers each hash and store the same string, so a plain atomic
// pointer is enough.
type validatorPin = atomic.Pointer[string]

// Pinned returns o with a slot that memoises its content validator, filled
// by the first ETag call on any copy of the result — so an immutable store
// of pinned objects hashes each body at most once per process, and a run in
// which nothing caches hashes nothing. Body must not change afterwards.
func (o Object) Pinned() Object {
	if o.pin == nil {
		o.pin = new(validatorPin)
	}
	return o
}

// ETag returns the object's content validator: the recorded Validator when
// there is one, else ContentValidator(Body) — memoised if the object was
// pinned, hashed on every call if not.
func (o Object) ETag() string { return etag(o.Validator, o.pin, o.Body) }

func etag(recorded string, pin *validatorPin, body []byte) string {
	if recorded != "" {
		return recorded
	}
	if pin == nil {
		return ContentValidator(body)
	}
	if v := pin.Load(); v != nil {
		return *v
	}
	v := ContentValidator(body)
	pin.Store(&v)
	return v
}

// Store resolves a URL to origin content.
type Store interface {
	Get(url string) (Object, bool)
}

// MapStore is a trivial in-memory Store.
type MapStore map[string]Object

// Get implements Store.
func (m MapStore) Get(url string) (Object, bool) {
	o, ok := m[url]
	return o, ok
}

// tlsHello and tlsDone model the TLS setup exchange on https connections:
// one extra round trip carrying a client hello and the server certificate.
type tlsHello struct{}

type tlsDone struct{}

const (
	tlsHelloSize = 330
	tlsCertSize  = 3200
)

// Server serves objects from a store at a simnet host. One Server instance
// handles every connection arriving at its host.
type Server struct {
	sched *eventsim.Simulator
	host  *simnet.Host
	store Store
	think time.Duration

	faults OriginFaults
	stats  OriginFaultStats

	// Requests counts requests served (including 404s).
	Requests int
}

// NewServer installs an HTTP server on host serving from store, with a fixed
// per-request processing (think) time. sched is the simulation the host
// belongs to.
func NewServer(sched *eventsim.Simulator, host *simnet.Host, store Store, think time.Duration) *Server {
	s := &Server{sched: sched, host: host, store: store, think: think}
	host.Listen(func(c *simnet.Conn) {
		c.OnMessage(host, func(m simnet.Message) {
			if _, isHello := m.Payload.(tlsHello); isHello {
				c.Send(host, tlsCertSize, tlsDone{}, "tls", nil)
				return
			}
			req, ok := m.Payload.(Request)
			if !ok {
				return
			}
			s.Requests++
			fault := s.decideFault()
			if fault == faultError || fault == faultFlap {
				resp := Response{Status: 503, URL: req.URL, Body: []byte("origin unavailable")}
				c.Send(host, resp.WireSize(), resp, req.URL, nil)
				return
			}
			respond := func() {
				obj, found := s.store.Get(req.URL)
				resp := Response{Status: 200, URL: req.URL, ContentType: obj.ContentType, Body: obj.Body}
				if !found {
					resp = Response{Status: 404, URL: req.URL, Body: []byte("not found")}
				} else if obj.Status != 0 {
					resp.Status = obj.Status
				}
				if fault == faultPartial && resp.Status == 200 {
					// A truncated transfer: half the body arrives, then the
					// connection-level failure surfaces as a 502 (never
					// cached, so the retry's full body starts the generation)
					// and without the full body's validator.
					resp.Status = 502
					resp.Body = resp.Body[:len(resp.Body)/2]
				} else if found {
					resp.Validator, resp.pin = obj.Validator, obj.pin
				}
				c.Send(host, resp.WireSize(), resp, req.URL, nil)
			}
			delay := s.think
			if fault == faultStall {
				delay += s.faults.StallFor
			}
			if delay > 0 {
				sched.Schedule(delay, respond)
			} else {
				respond()
			}
		})
	})
	return s
}

// Directory maps domain names to the simnet hosts that serve them.
type Directory map[string]*simnet.Host

// HostFor returns the host serving domain; panics on unknown domains, which
// indicates broken topology wiring.
func (d Directory) HostFor(domain string) *simnet.Host {
	h, ok := d[domain]
	if !ok {
		panic(fmt.Sprintf("httpsim: no host for domain %q", domain))
	}
	return h
}

// Client issues HTTP requests from a host, with DNS resolution, per-domain
// connection pools of bounded size, and a browser-like cap on total parallel
// connections (2014-era mobile engines pooled ~17 connections overall — one
// of the reasons "all the objects cannot be requested in parallel", §3).
type Client struct {
	sched    *eventsim.Simulator
	host     *simnet.Host
	dir      Directory
	resolver *dnssim.Resolver
	maxConns int
	maxTotal int

	pools map[string]*pool
	// poolList holds the pools in creation order. Every behaviour-affecting
	// iteration walks this slice, never the map: map iteration order is
	// randomized per process, and iterating it to pick an eviction victim (or
	// to close connections) made simulation runs nondeterministic.
	poolList   []*pool
	queue      []*pendingReq
	totalConns int

	// reqArena/reqFree recycle pendingReq structs through the same
	// block-arena + free-list scheme simnet uses for packets: the queue
	// churns once per request-dispatch opportunity, and without pooling it
	// dominated the client's steady-state allocations.
	reqArena []pendingReq
	reqFree  *pendingReq

	// RequestsSent counts requests put on the wire.
	RequestsSent int
	// ConnsOpened counts TCP connections dialed.
	ConnsOpened int
}

// NewClient builds a client. resolver may be nil (no DNS cost).
// maxConnsPerDomain <= 0 defaults to 6; maxTotalConns <= 0 means unlimited.
func NewClient(sched *eventsim.Simulator, host *simnet.Host, dir Directory, resolver *dnssim.Resolver, maxConnsPerDomain int) *Client {
	if maxConnsPerDomain <= 0 {
		maxConnsPerDomain = 6
	}
	return &Client{
		sched: sched, host: host, dir: dir, resolver: resolver,
		maxConns: maxConnsPerDomain, pools: make(map[string]*pool),
	}
}

// SetMaxTotalConns caps the client's total parallel connections across all
// domains (0 = unlimited). Call before issuing requests.
func (c *Client) SetMaxTotalConns(n int) { c.maxTotal = n }

type pool struct {
	domain  string
	conns   []*pconn
	dialing int // connections in handshake
	// pendingCap is drain-pass scratch: capacity already being created for
	// this domain at the start of the pass. Reset by every drain; replaces a
	// per-drain map allocation.
	pendingCap int
}

type pconn struct {
	conn    *simnet.Conn
	busy    bool
	ready   bool // handshake finished
	current func(Response, time.Duration)
}

//parcelvet:pooled
type pendingReq struct {
	domain string // pool key (prefixed for TLS)
	origin string // logical domain
	tls    bool
	req    Request
	cb     func(Response, time.Duration)

	nextFree *pendingReq
	pooled   bool // on the free list; double-release check under -tags simdebug
}

// reqBlockSize is how many pendingReq structs one arena block holds.
const reqBlockSize = 64

// newReq carves a pendingReq off the free list or the arena.
func (c *Client) newReq() *pendingReq {
	if pr := c.reqFree; pr != nil {
		c.reqFree = pr.nextFree
		pr.nextFree = nil
		pr.pooled = false
		return pr
	}
	if len(c.reqArena) == 0 {
		c.reqArena = make([]pendingReq, reqBlockSize)
	}
	pr := &c.reqArena[0]
	c.reqArena = c.reqArena[1:]
	return pr
}

// releaseReq returns a dispatched request to the free list, dropping its
// callback and request references.
func (c *Client) releaseReq(pr *pendingReq) {
	checkReqFree(pr)
	*pr = pendingReq{nextFree: c.reqFree, pooled: true}
	c.reqFree = pr
}

// Do issues req and invokes cb with the response. Connection management
// mirrors a traditional browser: reuse an idle persistent connection, dial a
// new one when below the per-domain and total caps, otherwise queue. An
// https URL uses a separate connection pool whose setup includes the TLS
// exchange (one extra round trip).
func (c *Client) Do(req Request, cb func(Response, time.Duration)) {
	domain, _, tls := SplitURLScheme(req.URL)
	key := domain
	if tls {
		key = "tls:" + domain
	}
	start := func(time.Duration) {
		pr := c.newReq()
		pr.domain, pr.origin, pr.tls, pr.req, pr.cb = key, domain, tls, req, cb
		c.queue = append(c.queue, pr)
		c.drain()
	}
	if c.resolver != nil {
		c.resolver.Resolve(domain, start)
	} else {
		start(0)
	}
}

// drain issues every queued request that can proceed, in FIFO order per
// opportunity: a request runs on an idle ready connection for its domain, or
// dials a new connection when below both caps; otherwise it keeps waiting
// (later requests for other domains may still proceed). Connections in
// handshake count as capacity already being created for their domain, so a
// drain pass never dials more connections than a domain has waiting
// requests.
func (c *Client) drain() {
	// Capacity being created per domain in this pass.
	for _, p := range c.poolList {
		p.pendingCap = p.dialing
	}
	// In-place compaction: issued requests are released back to the free
	// list, waiting ones slide down, and the tail is nil'd so the backing
	// array does not pin released structs. No per-drain allocation.
	kept := 0
	for i := 0; i < len(c.queue); i++ {
		pr := c.queue[i]
		if c.tryIssue(pr) {
			c.releaseReq(pr)
			continue
		}
		c.queue[kept] = pr
		kept++
	}
	for i := kept; i < len(c.queue); i++ {
		c.queue[i] = nil
	}
	c.queue = c.queue[:kept]
}

// tryIssue runs pr on an idle connection, or arranges capacity for it.
// It returns true only when the request was actually issued.
func (c *Client) tryIssue(pr *pendingReq) bool {
	p := c.pools[pr.domain]
	if p == nil {
		p = &pool{domain: pr.domain}
		c.pools[pr.domain] = p
		c.poolList = append(c.poolList, p)
	}
	for _, pc := range p.conns {
		if pc.ready && !pc.busy {
			c.issue(pc, pr)
			return true
		}
	}
	// Use capacity already being created (a handshake in flight) before
	// dialing more.
	if p.pendingCap > 0 {
		p.pendingCap--
		return false
	}
	if len(p.conns) >= c.maxConns {
		return false
	}
	if c.maxTotal > 0 && c.totalConns >= c.maxTotal {
		// Browser-like pool management: evict an idle connection of another
		// domain to make room; if none is idle, wait for a response.
		if !c.evictIdle(pr.domain) {
			return false
		}
	}
	c.dial(p, pr.origin, pr.tls)
	return false // the request stays queued until the handshake completes
}

// evictIdle closes one ready idle connection belonging to a different
// domain, returning true if room was made. Pools are scanned in creation
// order so the victim choice is deterministic.
func (c *Client) evictIdle(exceptDomain string) bool {
	for _, p := range c.poolList {
		if p.domain == exceptDomain {
			continue
		}
		for i, pc := range p.conns {
			if pc.ready && !pc.busy {
				pc.conn.Close()
				p.conns = append(p.conns[:i], p.conns[i+1:]...)
				c.totalConns--
				return true
			}
		}
	}
	return false
}

func (c *Client) dial(p *pool, origin string, tls bool) {
	remote := c.dir.HostFor(origin)
	pc := &pconn{}
	p.conns = append(p.conns, pc)
	c.ConnsOpened++
	c.totalConns++
	p.dialing++
	pc.conn = c.host.Dial(remote, func(conn *simnet.Conn) {
		if !tls {
			pc.ready = true
			p.dialing--
			c.drain()
			return
		}
		// TLS setup: hello out, certificate back, then ready.
		conn.Send(c.host, tlsHelloSize, tlsHello{}, "tls", nil)
	})
	pc.conn.OnMessage(c.host, func(m simnet.Message) {
		if _, isTLS := m.Payload.(tlsDone); isTLS {
			pc.ready = true
			p.dialing--
			c.drain()
			return
		}
		resp, ok := m.Payload.(Response)
		if !ok {
			return
		}
		done := pc.current
		pc.current = nil
		pc.busy = false
		if done != nil {
			done(resp, m.At)
		}
		c.drain()
	})
}

func (c *Client) issue(pc *pconn, pr *pendingReq) {
	pc.busy = true
	pc.current = pr.cb
	c.RequestsSent++
	pc.conn.Send(c.host, pr.req.WireSize(), pr.req, pr.req.URL, nil)
}

// OpenConns reports currently open connections for a domain (tests).
func (c *Client) OpenConns(domain string) int {
	p := c.pools[domain]
	if p == nil {
		return 0
	}
	return len(p.conns)
}

// TotalConns reports open connections across all domains.
func (c *Client) TotalConns() int { return c.totalConns }

// CloseIdle closes every pooled connection (end of a page session).
func (c *Client) CloseIdle() {
	for _, p := range c.poolList {
		for _, pc := range p.conns {
			if pc.ready && !pc.busy && !pc.conn.Closed() {
				pc.conn.Close()
			}
		}
	}
}

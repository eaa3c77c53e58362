package httpsim

import (
	"time"

	"github.com/parcel-go/parcel/internal/dnssim"
	"github.com/parcel-go/parcel/internal/eventsim"
	"github.com/parcel-go/parcel/internal/simnet"
)

// SPDYClient models a SPDY-style transport (§3): a single multiplexed
// connection per server domain, with no one-outstanding-request limit —
// requests for a domain are pipelined onto its one stream as soon as they
// are issued. What it does NOT change is who identifies objects: discovery
// stays on the (slow) client, which is why the paper expects SPDY alone not
// to close the gap ("the performance with SPDY is limited by how quickly the
// less capable mobile client issues requests", §4.3).
type SPDYClient struct {
	sched    *eventsim.Simulator
	host     *simnet.Host
	dir      Directory
	resolver *dnssim.Resolver

	conns map[string]*spdyConn

	Counters // ConnsOpened is one per domain
}

type spdyConn struct {
	conn    *simnet.Conn
	ready   bool
	pending []Request // queued until the handshake completes
	// inFlight maps URL to response callbacks (SPDY stream demux).
	inFlight map[string][]func(Response, time.Duration)
}

// NewSPDYClient builds a SPDY-style client.
func NewSPDYClient(sched *eventsim.Simulator, host *simnet.Host, dir Directory, resolver *dnssim.Resolver) *SPDYClient {
	return &SPDYClient{
		sched: sched, host: host, dir: dir, resolver: resolver,
		conns: make(map[string]*spdyConn),
	}
}

// Do issues req on the domain's multiplexed stream.
func (c *SPDYClient) Do(req Request, cb func(Response, time.Duration)) {
	domain, _ := SplitURL(req.URL)
	start := func(time.Duration) {
		sc := c.conns[domain]
		if sc == nil {
			sc = &spdyConn{inFlight: make(map[string][]func(Response, time.Duration))}
			c.conns[domain] = sc
			c.ConnsOpened++
			remote := c.dir.HostFor(domain)
			sc.conn = c.host.Dial(remote, func(*simnet.Conn) {
				sc.ready = true
				queued := sc.pending
				sc.pending = nil
				for _, q := range queued {
					c.send(sc, q)
				}
			})
			sc.conn.OnMessage(c.host, func(m simnet.Message) {
				resp, ok := m.Payload.(Response)
				if !ok {
					return
				}
				cbs := sc.inFlight[resp.URL]
				if len(cbs) == 0 {
					return
				}
				sc.inFlight[resp.URL] = cbs[1:]
				cbs[0](resp, m.At)
			})
		}
		sc.inFlight[req.URL] = append(sc.inFlight[req.URL], cb)
		if !sc.ready {
			sc.pending = append(sc.pending, req)
			return
		}
		c.send(sc, req)
	}
	if c.resolver != nil {
		c.resolver.Resolve(domain, dnssim.Func(start))
	} else {
		start(0)
	}
}

func (c *SPDYClient) send(sc *spdyConn, req Request) {
	c.RequestsSent++
	// SPDY header compression shaves most of the request overhead.
	size := req.WireSize() / 3
	if size < 60 {
		size = 60
	}
	sc.conn.Send(c.host, size, req, req.URL, nil)
}

// TotalConns reports open connections (== domains contacted).
func (c *SPDYClient) TotalConns() int { return len(c.conns) }

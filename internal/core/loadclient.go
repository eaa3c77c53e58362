package core

import (
	"time"

	"github.com/parcel-go/parcel/internal/eventsim"
	"github.com/parcel-go/parcel/internal/metrics"
	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/simnet"
)

// LoadClient is the fleet-simulation tenant: it speaks the PARCEL session
// protocol and drives sched.ClientSession, but runs no browser engine and has
// no direct path — it measures delivery latency and bytes, not rendering, so
// hundreds share one simulator and the proxy under test does the heavy
// lifting.
type LoadClient struct {
	sched.ClientSession
	sim   *eventsim.Simulator
	host  *simnet.Host
	proxy *simnet.Host
	url   string
	conn  *simnet.Conn
	// ID tags the tenant in fleet reports.
	ID int
}

// NewLoadClient prepares one tenant on its own access host to load url, a page
// of objects objects (0 when unknown). Start it with StartAt; read its sample
// with SessionLoad after the simulation drains.
func NewLoadClient(id int, sim *eventsim.Simulator, host, proxy *simnet.Host, url string, objects int) *LoadClient {
	return &LoadClient{ClientSession: sched.NewClientSession(false, objects), ID: id, sim: sim, host: host, proxy: proxy, url: url}
}

// StartAt schedules the session's page request at virtual time at (staggered
// fleet arrivals).
func (c *LoadClient) StartAt(at time.Duration) {
	c.sim.ScheduleArgAt(at, startLoadClient, c)
}

// startLoadClient opens the tenant's session (the noclosure ScheduleArgAt
// idiom: package-level func, typed argument).
func startLoadClient(arg any) {
	c := arg.(*LoadClient)
	c.Start(c.url, c.sim.Now())
	c.conn = c.host.Dial(c.proxy, func(conn *simnet.Conn) {
		req := pageRequest{URL: c.url, UserAgent: "PARCEL-loadgen/1.0", Screen: "720x1280"}
		conn.Send(c.host, req.wireSize(), req, labelPageReq, nil)
	})
	c.conn.OnMessage(c.host, c.onMessage)
}

// onMessage books every byte the proxy sent (content and control) and feeds
// the session; a tenant wants nothing, so the note asks for nothing.
func (c *LoadClient) onMessage(m simnet.Message) {
	c.BytesReceived += int64(m.Size)
	switch msg := m.Payload.(type) {
	case bundleMsg:
		for _, it := range msg.Parts {
			c.Received(it, m.At)
		}
	case completeNote:
		c.Complete(msg.Counts, m.At)
	}
}

// SessionLoad is the tenant's fleet sample.
func (c *LoadClient) SessionLoad() metrics.SessionLoad {
	return metrics.ClientLoad(c.ID, &c.ClientSession)
}

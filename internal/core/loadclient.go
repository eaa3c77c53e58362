package core

import (
	"time"

	"github.com/parcel-go/parcel/internal/eventsim"
	"github.com/parcel-go/parcel/internal/metrics"
	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/simnet"
)

// LoadClient is the fleet-simulation tenant: it speaks the PARCEL session
// protocol (page request in, bundles and the completion notification out) but
// runs no browser engine — it measures delivery latency and bytes, not
// rendering. That keeps a tenant cheap enough that hundreds share one
// simulator, which is the point of a load run: the proxy under test does the
// heavy lifting, the tenants just receive.
type LoadClient struct {
	sim   *eventsim.Simulator
	host  *simnet.Host
	proxy *simnet.Host
	url   string

	conn *simnet.Conn
	note completeNote

	// ID tags the tenant in fleet reports.
	ID int
	// StartedAt/CompleteAt bracket the session on the virtual clock.
	// FirstCriticalAt is when the first render-blocking object (HTML, CSS,
	// script, JSON) arrived; zero until one does.
	StartedAt       time.Duration
	FirstCriticalAt time.Duration
	CompleteAt      time.Duration
	// Notified is set once the proxy's completion notification arrives.
	Notified bool

	// BundlesReceived/ObjectsReceived count proxy pushes; EgressBytes is
	// every byte the proxy sent this tenant (content and control).
	BundlesReceived int
	ObjectsReceived int
	EgressBytes     int64
}

// NewLoadClient prepares one tenant on its own access host. Start it with
// StartAt; read its sample with SessionLoad after the simulation drains.
func NewLoadClient(id int, sim *eventsim.Simulator, host, proxy *simnet.Host, url string) *LoadClient {
	return &LoadClient{ID: id, sim: sim, host: host, proxy: proxy, url: url}
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
	c.StartedAt = c.sim.Now()
	c.conn = c.host.Dial(c.proxy, func(conn *simnet.Conn) {
		req := pageRequest{URL: c.url, UserAgent: "PARCEL-loadgen/1.0", Screen: "720x1280"}
		conn.Send(c.host, req.wireSize(), req, labelPageReq, nil)
	})
	c.conn.OnMessage(c.host, c.onMessage)
}

func (c *LoadClient) onMessage(m simnet.Message) {
	c.EgressBytes += int64(m.Size)
	switch msg := m.Payload.(type) {
	case bundleMsg:
		c.BundlesReceived++
		c.ObjectsReceived += len(msg.Parts)
		if c.FirstCriticalAt == 0 {
			for _, p := range msg.Parts {
				if sched.Critical(p.ContentType) {
					c.FirstCriticalAt = m.At
					break
				}
			}
		}
	case objectResponse:
		c.ObjectsReceived++
	case completeNote:
		if !c.Notified {
			c.Notified = true
			c.CompleteAt = m.At
			c.note = msg
		}
	}
}

// SessionLoad assembles the tenant's fleet sample: completion, latency from
// request to the proxy's completion notification, and the note's shared-cache
// accounting.
func (c *LoadClient) SessionLoad() metrics.SessionLoad {
	l := metrics.NoteLoad(c.note.Counts)
	l.ID, l.Page, l.Completed, l.EgressBytes = c.ID, c.url, c.Notified, c.EgressBytes
	if c.Notified {
		l.Latency = c.CompleteAt - c.StartedAt
	}
	if c.FirstCriticalAt > 0 {
		l.FirstCritical = c.FirstCriticalAt - c.StartedAt
	}
	return l
}

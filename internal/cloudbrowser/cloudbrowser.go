// Package cloudbrowser implements CB, the cloud-heavy baseline of §8.2: a
// thin-client browser in the style of Opera Mini / Skyfire where the cloud
// executes all page logic — including JavaScript — and ships the client
// rendered page snapshots. The client performs no JS execution; every user
// interaction is relayed to the cloud, which runs the handler remotely and
// returns an updated snapshot. This is the design whose interaction cost the
// paper demonstrates PARCEL avoids (Figure 8).
package cloudbrowser

import (
	"strings"
	"time"

	"github.com/parcel-go/parcel/internal/browser"
	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/metrics"
	"github.com/parcel-go/parcel/internal/radio"
	"github.com/parcel-go/parcel/internal/scenario"
	"github.com/parcel-go/parcel/internal/simnet"
	"github.com/parcel-go/parcel/internal/trace"
)

// The evaluation's cloud-browser constants.
const (
	// snapshotFactor scales page bytes into rendered-snapshot bytes (cloud
	// browsers compress aggressively; OBML-style formats ship well under
	// the raw page weight).
	snapshotFactor = 0.6
	// updateOverheadBytes is the fixed cost of a per-interaction snapshot
	// delta (layout re-serialization).
	updateOverheadBytes = 24 << 10
	// clientRenderPerKB is the thin client's cost to paint a snapshot.
	clientRenderPerKB = 300 * time.Microsecond
)

// message labels for traces.
const (
	labelSnapshot = "cb:snapshot"
	labelEvent    = "ctl:cb-event"
	labelPageReq  = "ctl:cb-pagereq"
)

type cbPageRequest struct{ URL string }

type cbSnapshot struct {
	Bytes   int
	Initial bool
}

type cbEvent struct{ Event, Target string }

// Session is one CB page session: cloud engine plus thin client.
type Session struct {
	topo *scenario.Topology

	CloudEngine *browser.Engine
	conn        *simnet.Conn

	clientCPUBusy   time.Duration
	clientCPUActive time.Duration

	snapshotAt    time.Duration // arrival of the initial snapshot
	renderedAt    time.Duration
	pendingUpdate bool

	// SnapshotsSent counts cloud→client snapshot messages.
	SnapshotsSent int
	// BytesToClient counts snapshot bytes shipped.
	BytesToClient int64
	// EventsSent counts client→cloud interaction round-trips.
	EventsSent int

	onUpdate func(at time.Duration)
}

// New prepares a CB session on the topology: the cloud side listens on the
// proxy host.
func New(topo *scenario.Topology) *Session {
	s := &Session{topo: topo}
	topo.Proxy.Listen(func(c *simnet.Conn) {
		c.OnMessage(topo.Proxy, s.onCloudMessage)
	})
	return s
}

// Start begins the first download (FD) without running the simulator: the
// client dials the cloud and sends the page request. The cloud loads the
// page and ships the initial snapshot at its onload event; post-onload
// content arrives as a trailing update at cloud completion.
func (s *Session) Start() {
	topo := s.topo
	s.conn = topo.Client.Dial(topo.Proxy, func(conn *simnet.Conn) {
		conn.Send(topo.Client, 260+len(topo.Page.MainURL), cbPageRequest{URL: topo.Page.MainURL}, labelPageReq, nil)
	})
	s.conn.OnMessage(topo.Client, s.onClientMessage)
}

// Load runs the first download to quiescence and returns the metrics.
func (s *Session) Load() metrics.PageRun {
	s.Start()
	s.topo.Sim.Run()
	return s.Collect()
}

// onCloudMessage handles client→cloud traffic at the proxy host.
func (s *Session) onCloudMessage(m simnet.Message) {
	switch msg := m.Payload.(type) {
	case cbPageRequest:
		s.startCloudLoad(msg.URL)
	case cbEvent:
		s.handleRemoteEvent(msg)
	}
}

// startCloudLoad loads url in the cloud engine: the proxy CPU profile, with
// the §7.3 replay rewrite.
func (s *Session) startCloudLoad(url string) {
	topo := s.topo
	client := httpsim.NewClientWithPools(topo.Sim, topo.Proxy, topo.Dir, topo.ProxyResolver, 6, topo.HTTPPools)
	client.SetMaxTotalConns(64)
	var bytesAtOnload, bytesTotal int64
	fetcher := cbFetcher{client: client, bytes: &bytesTotal}
	s.CloudEngine = browser.New(topo.Sim, fetcher, browser.Options{
		CPU:         browser.ProxyCPU(),
		FixedRandom: true,
		Objects:     topo.Page.ObjectCount,
		Events: browser.Events{
			OnLoad: func(at time.Duration) {
				bytesAtOnload = bytesTotal
				s.sendSnapshot(int(float64(bytesAtOnload)*snapshotFactor), true)
			},
			Complete: func(at time.Duration) {
				tail := bytesTotal - bytesAtOnload
				if tail > 0 {
					s.sendSnapshot(updateOverheadBytes+int(float64(tail)*snapshotFactor), false)
				}
			},
		},
	})
	s.CloudEngine.Load(url)
}

// cbFetcher fetches origin objects for the cloud engine, counting bytes.
type cbFetcher struct {
	client *httpsim.Client
	bytes  *int64
}

func (f cbFetcher) Fetch(url string, cb func(browser.Result)) {
	f.client.Do(httpsim.Request{Method: "GET", URL: url}, func(resp httpsim.Response, at time.Duration) {
		*f.bytes += int64(len(resp.Body))
		cb(browser.Result{URL: resp.URL, Status: resp.Status, ContentType: resp.ContentType, Body: resp.Body, At: at})
	})
}

func (s *Session) sendSnapshot(size int, initial bool) {
	if size < 1024 {
		size = 1024
	}
	s.SnapshotsSent++
	s.BytesToClient += int64(size)
	s.conn.Send(s.topo.Proxy, size, cbSnapshot{Bytes: size, Initial: initial}, labelSnapshot, nil)
}

// handleRemoteEvent runs the interaction in the cloud engine and ships the
// resulting snapshot delta — the network round-trip PARCEL's local JS
// execution avoids.
func (s *Session) handleRemoteEvent(ev cbEvent) {
	if s.CloudEngine != nil {
		s.CloudEngine.FireEvent(ev.Event, ev.Target)
	}
	// The handler ran remotely; ship the updated view.
	s.sendSnapshot(updateOverheadBytes+s.galleryDeltaBytes(), false)
}

// galleryDeltaBytes estimates the content bytes a gallery interaction
// re-displays: the next product image's share of the snapshot.
func (s *Session) galleryDeltaBytes() int {
	var total, n int64
	for _, o := range s.topo.Page.Objects {
		if strings.Contains(o.URL, "/products/") {
			total += int64(len(o.Body))
			n++
		}
	}
	if n == 0 {
		return 8 << 10
	}
	return int(float64(total/n) * snapshotFactor)
}

// onClientMessage handles cloud→client traffic at the client host.
func (s *Session) onClientMessage(m simnet.Message) {
	snap, ok := m.Payload.(cbSnapshot)
	if !ok {
		return
	}
	// Thin-client render: cheap, serialized on the device CPU.
	cost := time.Duration(float64(clientRenderPerKB) * float64(snap.Bytes) / 1024)
	start := s.topo.Sim.Now()
	if start < s.clientCPUBusy {
		start = s.clientCPUBusy
	}
	end := start + cost
	s.clientCPUBusy = end
	s.clientCPUActive += cost
	if snap.Initial {
		s.snapshotAt = m.At
		s.topo.Sim.ScheduleArgAt(end, markRendered, s)
	}
	if s.onUpdate != nil {
		cb := s.onUpdate
		s.onUpdate = nil
		//parcelvet:allow noclosure(fires once per user interaction, not per packet; the caller-supplied callback value has no typed carrier field)
		s.topo.Sim.ScheduleAt(end, func() { cb(s.topo.Sim.Now()) })
	}
}

// markRendered is the ScheduleArgAt continuation for the initial snapshot
// render completing on the thin client.
func markRendered(arg any) {
	s := arg.(*Session)
	s.renderedAt = s.topo.Sim.Now()
}

// Click relays a user interaction to the cloud; cb (optional) fires when the
// updated snapshot has been rendered.
func (s *Session) Click(event, target string, cb func(at time.Duration)) {
	s.EventsSent++
	s.onUpdate = cb
	s.conn.Send(s.topo.Client, 300, cbEvent{Event: event, Target: target}, labelEvent, nil)
}

// ClientCPUActive returns the thin client's total render CPU time.
func (s *Session) ClientCPUActive() time.Duration { return s.clientCPUActive }

// Collect assembles metrics. OLT is the initial snapshot arrival (the thin
// client has nothing to show before it); TLT the last snapshot byte.
func (s *Session) Collect() metrics.PageRun {
	var col metrics.Collector
	return s.CollectWith(&col)
}

// CollectWith is Collect reducing the trace through col's reusable scratch.
func (s *Session) CollectWith(col *metrics.Collector) metrics.PageRun {
	run := metrics.PageRun{Scheme: "CB", Page: s.topo.Page.Name}
	col.FromTrace(&run, s.topo.ClientTrace, s.snapshotAt, radio.DefaultLTE(), func(p trace.Packet) bool {
		return !strings.HasPrefix(p.Label, "ctl:")
	})
	run.CPUActive = s.clientCPUActive
	run.HTTPRequests = 1 + s.EventsSent
	run.ConnsOpened = 1
	run.ObjectsLoaded = s.SnapshotsSent
	return run
}

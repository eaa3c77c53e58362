// Package simnet is a deterministic, discrete-event packet network
// simulator: hosts with asymmetric access-link bandwidth, point-to-point
// paths with propagation delay and jitter, and a TCP-flavoured reliable
// stream model (three-way handshake, slow start with IW10, delayed ACKs,
// in-order message delivery).
//
// It substitutes for the live LTE network of the PARCEL paper: packet
// timestamps recorded at a host are exactly what a tcpdump capture on the
// device would provide to the ARO energy tool, and the request/response
// round-trip structure reproduces the latency phenomena the paper measures.
//
// The simulator is message-oriented: applications send discrete messages
// over connections; the simulator segments them at MSS granularity, applies
// serialization at both access links, propagation delay and the congestion
// window, and delivers each message exactly once, in order, to the receiving
// host's handler.
//
// Memory discipline: the per-segment data path is allocation-free. Wire
// packets and in-flight messages are drawn from per-Network free lists backed
// by arena blocks, delivery continuations are encoded as typed packet fields
// dispatched by package-level functions (no per-packet closures), and path
// parameters are cached per host so the per-packet lookup never hashes.
// A packet is owned by the network from transmit until its delivery dispatch
// runs, then returns to the free list; build with -tags simdebug to turn
// that ownership contract into a double-free panic check.
package simnet

import (
	"fmt"
	"time"

	"github.com/parcel-go/parcel/internal/eventsim"
	"github.com/parcel-go/parcel/internal/trace"
)

const (
	// MSS is the maximum segment payload size.
	MSS = 1460
	// HeaderSize is the per-packet TCP/IP header overhead.
	HeaderSize = 40
	// AckSize is the wire size of a pure ACK.
	AckSize = HeaderSize
	// InitialCwnd is the initial congestion window in segments (IW10).
	InitialCwnd = 10
	// SlowStartThreshold is the cwnd (segments) at which growth switches
	// from exponential to additive.
	SlowStartThreshold = 32
	// MaxCwnd caps the congestion window (a 64 KB receive window).
	MaxCwnd = 44
	// delayedAckCount is how many data segments one ACK covers.
	delayedAckCount = 2
)

// HostConfig describes a host's access link.
type HostConfig struct {
	// UplinkBps and DownlinkBps are access-link bandwidths in bytes/second.
	// Zero means "infinite" (no serialization delay in that direction).
	UplinkBps   int64
	DownlinkBps int64
	// Recorder, when non-nil, captures every packet the host sends or
	// receives (sends are stamped at wire departure, receives at delivery).
	Recorder *trace.Recorder
}

// peerPath caches the path parameters toward one directly wired peer. A host
// keeps them in a slice indexed by the peer's id, so the per-packet lookup is
// one bounds check and one load whether the host has three peers (a page
// topology's client) or hundreds (a fleet's proxy). to is nil in the slots of
// hosts this one has no path to. faults, when non-nil, holds this
// direction's injection state (SetFaults).
type peerPath struct {
	to     *Host
	params PathParams
	faults *linkFaults
}

// Host is a network endpoint.
type Host struct {
	Name string
	cfg  HostConfig
	net  *Network
	id   int // creation order within net; indexes every host's peers

	egressBusy  time.Duration
	ingressBusy time.Duration

	peers []peerPath // indexed by the peer's id

	accept func(*Conn)
	dgram  func(from *Host, payload any, size int, at time.Duration)
}

// peerTo returns the cached path entry toward to; it panics if the pair was
// never wired, which catches topology mistakes at their source.
func (h *Host) peerTo(to *Host) *peerPath {
	if to.id < len(h.peers) && h.peers[to.id].to == to {
		return &h.peers[to.id]
	}
	panic(fmt.Sprintf("simnet: no path between %q and %q", h.Name, to.Name))
}

// Network owns the hosts and the paths between them.
type Network struct {
	Sim        *eventsim.Simulator
	hosts      map[string]*Host
	paths      map[pathKey]PathParams
	nextConnID uint64

	// free lists + arena blocks for the allocation-free data path,
	// optionally shared across networks (see Pools).
	pools *Pools

	faultStats FaultStats
}

// Pools holds the packet and message free lists plus their arena blocks.
// One Pools can back many Networks as long as they all run on the same
// goroutine (the page simulations a batch worker runs in turn): a released
// object is fully zeroed before it reaches the free list, so whichever
// network pops it next starts from a clean slate. Pools is not safe for
// concurrent use.
type Pools struct {
	pktArena []packet
	pktFree  *packet
	msgArena []outMsg
	msgFree  *outMsg
}

// NewPools returns an empty packet/message pool.
func NewPools() *Pools { return &Pools{} }

type pathKey struct{ a, b string }

func orderedKey(a, b string) pathKey {
	if a < b {
		return pathKey{a, b}
	}
	return pathKey{b, a}
}

// PathParams describes a point-to-point path.
type PathParams struct {
	// RTT is the base round-trip propagation delay (excluding serialization).
	RTT time.Duration
	// Jitter is the standard deviation of the per-packet one-way delay
	// noise; the noise is non-negative so packets are only ever late.
	Jitter time.Duration
}

// New creates an empty network on the given simulator with a private pool.
func New(sim *eventsim.Simulator) *Network { return NewWithPools(sim, nil) }

// NewWithPools is New drawing packets and messages from p (nil for a private
// pool). Sharing one Pools across the networks of a simulation batch lets a
// finished page's packets feed the next page's data path.
func NewWithPools(sim *eventsim.Simulator, p *Pools) *Network {
	if p == nil {
		p = NewPools()
	}
	return &Network{
		Sim:   sim,
		hosts: make(map[string]*Host),
		paths: make(map[pathKey]PathParams),
		pools: p,
	}
}

// AddHost registers a host. Duplicate names panic: topology wiring is
// programmer-controlled and a duplicate is always a bug.
func (n *Network) AddHost(name string, cfg HostConfig) *Host {
	if _, ok := n.hosts[name]; ok {
		panic(fmt.Sprintf("simnet: duplicate host %q", name))
	}
	h := &Host{Name: name, cfg: cfg, net: n, id: len(n.hosts)}
	n.hosts[name] = h
	return h
}

// Host looks up a host by name, or nil.
func (n *Network) Host(name string) *Host { return n.hosts[name] }

// SetPath wires a bidirectional path between two hosts.
func (n *Network) SetPath(a, b *Host, p PathParams) {
	if a == b {
		panic("simnet: path to self")
	}
	n.paths[orderedKey(a.Name, b.Name)] = p
	setPeer(a, b, p)
	setPeer(b, a, p)
}

func setPeer(h, to *Host, p PathParams) {
	if grow := to.id + 1 - len(h.peers); grow > 0 {
		h.peers = append(h.peers, make([]peerPath, grow)...)
	}
	pp := &h.peers[to.id]
	pp.to = to
	pp.params = p
}

// PathBetween returns the path parameters between two hosts; it panics if the
// pair was never wired, which catches topology mistakes at their source.
func (n *Network) PathBetween(a, b *Host) PathParams {
	p, ok := n.paths[orderedKey(a.Name, b.Name)]
	if !ok {
		panic(fmt.Sprintf("simnet: no path between %q and %q", a.Name, b.Name))
	}
	return p
}

// packet is an in-flight wire packet, pooled per Network. The delivery
// continuation lives in typed fields: data segments and ACKs carry their
// sender-side state directly (the allocation-free fast path), everything else
// (handshake, FIN, datagrams) uses the generic arrive callback.
type packet struct {
	net      *Network
	from, to *Host

	size    int // wire bytes including headers
	kind    trace.Kind
	connID  uint64
	label   string
	payload any
	arrive  func(at time.Duration) // generic continuation, may be nil

	// data-path continuation (set instead of arrive on the fast path)
	sender     *sender
	msg        *outMsg
	segPayload int
	isMsgLast  bool
	ackCovered int

	deliverAt time.Duration
	attempts  uint8 // transmissions lost so far (fault injection)

	nextFree *packet
	pooled   bool // true while on the free list (double-free detection)
}

const poolBlockSize = 64

// newPacket pops a packet off the free list, or carves one from the arena.
// The returned packet is zeroed except for bookkeeping fields.
func (n *Network) newPacket() *packet {
	pl := n.pools
	if p := pl.pktFree; p != nil {
		pl.pktFree = p.nextFree
		p.nextFree = nil
		p.pooled = false
		return p
	}
	if len(pl.pktArena) == 0 {
		pl.pktArena = make([]packet, poolBlockSize)
	}
	p := &pl.pktArena[0]
	pl.pktArena = pl.pktArena[1:]
	return p
}

// releasePacket returns p to the free list, dropping every reference it
// holds. Releasing a packet twice corrupts the free list; build with
// -tags simdebug to panic at the offending call site instead.
func (n *Network) releasePacket(p *packet) {
	checkPacketFree(p)
	*p = packet{nextFree: n.pools.pktFree, pooled: true}
	n.pools.pktFree = p
}

// newOutMsg pops an in-flight message off the free list or the arena.
func (n *Network) newOutMsg() *outMsg {
	pl := n.pools
	if m := pl.msgFree; m != nil {
		pl.msgFree = m.nextFree
		m.nextFree = nil
		m.pooled = false
		return m
	}
	if len(pl.msgArena) == 0 {
		pl.msgArena = make([]outMsg, poolBlockSize)
	}
	m := &pl.msgArena[0]
	pl.msgArena = pl.msgArena[1:]
	return m
}

// releaseOutMsg returns m to the free list once its last byte was delivered.
func (n *Network) releaseOutMsg(m *outMsg) {
	checkOutMsgFree(m)
	*m = outMsg{nextFree: n.pools.msgFree, pooled: true}
	n.pools.msgFree = m
}

// transmit pushes a packet through from's egress queue, the propagation
// path, and to's ingress queue, then runs its delivery continuation. It
// models FIFO serialization at both access links, which is what makes
// concurrent connections share bandwidth. The packet must come from
// newPacket; transmit owns it until delivery dispatch releases it.
func (n *Network) transmit(from, to *Host, pkt *packet) {
	now := n.Sim.Now()
	pp := from.peerTo(to)
	path := pp.params

	depart := now
	if depart < from.egressBusy {
		depart = from.egressBusy
	}
	var serialize time.Duration
	if from.cfg.UplinkBps > 0 {
		serialize = time.Duration(float64(pkt.size) / float64(from.cfg.UplinkBps) * float64(time.Second))
	}
	depart += serialize
	if pp.faults != nil {
		// During an outage window the link carries nothing: the packet (and,
		// via egressBusy, everything queued behind it) departs when the
		// window ends.
		if end, down := pp.faults.p.outageEnd(depart); down {
			n.faultStats.OutageDeferrals++
			depart = end
		}
	}
	from.egressBusy = depart

	if from.cfg.Recorder != nil {
		from.cfg.Recorder.Record(trace.Packet{
			At: depart, Size: pkt.size, Dir: trace.Up, Kind: pkt.kind,
			Conn: pkt.connID, Label: pkt.label,
		})
	}

	if lf := pp.faults; lf != nil && lf.drop(n.Sim.Rand()) {
		n.faultStats.Dropped++
		if int(pkt.attempts) < lf.p.maxAttempts() {
			// The attempt consumed the uplink (recorded above) but never
			// reaches the receiver: re-transmit the same pooled packet after
			// an exponentially backed-off RTO.
			pkt.attempts++
			n.faultStats.Retransmits++
			n.faultStats.RetransmitBytes += int64(pkt.size)
			shift := uint(pkt.attempts - 1)
			if shift > maxRTOBackoffShift {
				shift = maxRTOBackoffShift
			}
			pkt.net = n
			pkt.from = from
			pkt.to = to
			n.Sim.ScheduleArgAt(depart+lf.p.rto()<<shift, pktRetransmit, pkt)
			return
		}
		// MaxAttempts losses in a row: deliver anyway so the simulation
		// terminates even under LossRate 1 inside an experiment.
		n.faultStats.ForcedDeliveries++
	}

	prop := path.RTT / 2
	if path.Jitter > 0 {
		noise := n.Sim.Rand().NormFloat64() * float64(path.Jitter)
		if noise < 0 {
			noise = -noise
		}
		prop += time.Duration(noise)
	}

	pkt.net = n
	pkt.from = from
	pkt.to = to
	n.Sim.ScheduleArgAt(depart+prop, pktIngress, pkt)
}

// pktIngress runs when a packet reaches the receiver's access link: it queues
// behind earlier arrivals (FIFO ingress serialization) and schedules the
// delivery instant.
func pktIngress(v any) {
	p := v.(*packet)
	n := p.net
	to := p.to
	deliver := n.Sim.Now()
	if deliver < to.ingressBusy {
		deliver = to.ingressBusy
	}
	if to.cfg.DownlinkBps > 0 {
		deliver += time.Duration(float64(p.size) / float64(to.cfg.DownlinkBps) * float64(time.Second))
	}
	to.ingressBusy = deliver
	p.deliverAt = deliver
	n.Sim.ScheduleArgAt(deliver, pktDeliver, p)
}

// pktDeliver records the arrival, releases the packet, and runs its
// continuation. The continuation state is copied to locals first so the
// packet can be reused by sends the continuation itself triggers.
func pktDeliver(v any) {
	p := v.(*packet)
	n := p.net
	to := p.to
	at := p.deliverAt
	if to.cfg.Recorder != nil {
		to.cfg.Recorder.Record(trace.Packet{
			At: at, Size: p.size, Dir: trace.Down, Kind: p.kind,
			Conn: p.connID, Label: p.label,
		})
	}
	switch {
	case p.sender != nil && p.kind == trace.KindData:
		s, msg, seg, last := p.sender, p.msg, p.segPayload, p.isMsgLast
		n.releasePacket(p)
		s.onSegmentArrived(msg, seg, last, at)
	case p.sender != nil && p.kind == trace.KindACK:
		s, covered := p.sender, p.ackCovered
		n.releasePacket(p)
		s.onAck(covered)
	default:
		arrive := p.arrive
		n.releasePacket(p)
		if arrive != nil {
			arrive(at)
		}
	}
}

// SendDatagram delivers a single connectionless packet (the DNS substrate
// uses this). size is the wire size; onDelivered may be nil.
func (h *Host) SendDatagram(to *Host, size int, payload any, onDelivered func(at time.Duration)) {
	p := h.net.newPacket()
	p.size = size
	p.kind = trace.KindDNS
	p.payload = payload
	from := h
	p.arrive = func(at time.Duration) {
		if to.dgram != nil {
			to.dgram(from, payload, size, at)
		}
		if onDelivered != nil {
			onDelivered(at)
		}
	}
	h.net.transmit(h, to, p)
}

// HandleDatagrams registers the host's datagram handler.
func (h *Host) HandleDatagrams(fn func(from *Host, payload any, size int, at time.Duration)) {
	h.dgram = fn
}

// Listen registers the host's connection-accept handler. The handler runs
// when a remote SYN arrives, before the SYN-ACK is sent, so the server can
// register its message handler on the new connection.
func (h *Host) Listen(fn func(*Conn)) { h.accept = fn }

// Message is a received application message.
type Message struct {
	Payload any
	Size    int
	At      time.Duration
}

// Conn is a reliable, in-order, message-preserving bidirectional stream
// between two hosts, with TCP-like congestion behaviour per direction.
// The two per-direction sender states are embedded so a Dial costs a single
// allocation.
type Conn struct {
	ID          uint64
	net         *Network
	initiator   *Host
	responder   *Host
	established bool
	closed      bool

	// one sender state per direction
	sndToResponder sender // initiator -> responder
	sndToInitiator sender // responder -> initiator

	// message handlers, one per endpoint (replaces a per-conn map)
	msgAtInitiator func(Message)
	msgAtResponder func(Message)

	pendingDial []func() // sends queued before the handshake completed
}

// sender is per-direction TCP sender state.
type sender struct {
	conn     *Conn
	from, to *Host

	cwnd     float64
	inflight int
	queue    []*outMsg
	// queueBuf is the queue's inline first backing: most senders hold only
	// a couple of undelivered messages at a time, so seeding queue from
	// here (and resetting to it whenever the queue drains) spares fresh
	// connections a heap slice per direction per send burst.
	queueBuf [4]*outMsg

	unackedSegs int // data segments received but not yet ACKed (receiver side bookkeeping kept at sender's peer)
}

// outMsg is an in-flight application message, pooled per Network: it returns
// to the free list when its last byte is delivered.
type outMsg struct {
	size      int
	remaining int // bytes not yet handed to the wire
	undeliv   int // bytes not yet arrived at receiver
	payload   any
	label     string
	delivered func(at time.Duration)

	nextFree *outMsg
	pooled   bool
}

// Dial opens a connection from h to remote. onEstablished runs at h when the
// SYN-ACK arrives (one RTT later); queued Sends flush at that point.
func (h *Host) Dial(remote *Host, onEstablished func(*Conn)) *Conn {
	n := h.net
	n.nextConnID++
	c := &Conn{
		ID:        n.nextConnID,
		net:       n,
		initiator: h,
		responder: remote,
	}
	c.sndToResponder = sender{conn: c, from: h, to: remote, cwnd: InitialCwnd}
	c.sndToInitiator = sender{conn: c, from: remote, to: h, cwnd: InitialCwnd}
	c.sndToResponder.queue = c.sndToResponder.queueBuf[:0]
	c.sndToInitiator.queue = c.sndToInitiator.queueBuf[:0]

	syn := n.newPacket()
	syn.size = HeaderSize
	syn.kind = trace.KindSYN
	syn.connID = c.ID
	syn.arrive = func(at time.Duration) {
		if remote.accept != nil {
			remote.accept(c)
		}
		synack := n.newPacket()
		synack.size = HeaderSize
		synack.kind = trace.KindSYNACK
		synack.connID = c.ID
		synack.arrive = func(at time.Duration) {
			c.established = true
			if onEstablished != nil {
				onEstablished(c)
			}
			for _, fn := range c.pendingDial {
				fn()
			}
			c.pendingDial = nil
		}
		n.transmit(remote, h, synack)
	}
	n.transmit(h, remote, syn)
	return c
}

// Responder returns the accepting host.
func (c *Conn) Responder() *Host { return c.responder }

// OnMessage registers the handler invoked for every message delivered to at.
func (c *Conn) OnMessage(at *Host, fn func(Message)) {
	switch at {
	case c.initiator:
		c.msgAtInitiator = fn
	case c.responder:
		c.msgAtResponder = fn
	default:
		panic(fmt.Sprintf("simnet: host %q not on conn %d", at.Name, c.ID))
	}
}

// handlerAt returns the message handler registered for deliveries at h.
func (c *Conn) handlerAt(h *Host) func(Message) {
	if h == c.initiator {
		return c.msgAtInitiator
	}
	return c.msgAtResponder
}

// Send queues a message of size bytes from host `from` to its peer. The
// message is segmented at MSS; onDelivered (optional) fires at the receiver
// when the last byte arrives. label annotates the packets in traces.
func (c *Conn) Send(from *Host, size int, payload any, label string, onDelivered func(at time.Duration)) {
	if c.closed {
		panic(fmt.Sprintf("simnet: send on closed conn %d", c.ID))
	}
	if size <= 0 {
		panic(fmt.Sprintf("simnet: message size %d", size))
	}
	s := c.senderFrom(from)
	msg := c.net.newOutMsg()
	msg.size = size
	msg.remaining = size
	msg.undeliv = size
	msg.payload = payload
	msg.label = label
	msg.delivered = onDelivered
	// The responder may reply on a connection whose SYN-ACK is still in
	// flight back to the initiator (TCP allows data right after SYN-ACK);
	// only the initiator must wait for establishment.
	if !c.established && from == c.initiator {
		//parcelvet:allow pooldiscipline(ownership of msg is parked, not shared: the SYN-ACK continuation drains pendingDial exactly once and hands msg to the queue, which releases it on delivery)
		c.pendingDial = append(c.pendingDial, func() {
			s.queue = append(s.queue, msg)
			s.pump()
		})
		return
	}
	s.queue = append(s.queue, msg)
	s.pump()
}

func (c *Conn) senderFrom(from *Host) *sender {
	switch from {
	case c.initiator:
		return &c.sndToResponder
	case c.responder:
		return &c.sndToInitiator
	default:
		panic(fmt.Sprintf("simnet: host %q not on conn %d", from.Name, c.ID))
	}
}

// Close sends a FIN in both directions (best-effort; no time-wait modeling).
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	fin1 := c.net.newPacket()
	fin1.size = HeaderSize
	fin1.kind = trace.KindFIN
	fin1.connID = c.ID
	c.net.transmit(c.initiator, c.responder, fin1)
	fin2 := c.net.newPacket()
	fin2.size = HeaderSize
	fin2.kind = trace.KindFIN
	fin2.connID = c.ID
	c.net.transmit(c.responder, c.initiator, fin2)
}

// Closed reports whether Close was called.
func (c *Conn) Closed() bool { return c.closed }

// pump transmits as many segments as the congestion window allows. Each
// segment is a pooled packet carrying its continuation in typed fields —
// no per-segment closure.
func (s *sender) pump() {
	for s.inflight < int(s.cwnd) && len(s.queue) > 0 {
		head := s.queue[0]
		segPayload := head.remaining
		if segPayload > MSS {
			segPayload = MSS
		}
		head.remaining -= segPayload
		isMsgLast := head.remaining == 0
		if isMsgLast {
			// Move the head out of the send queue; delivery bookkeeping
			// continues via the packet's msg reference.
			s.queue = s.queue[1:]
			if len(s.queue) == 0 {
				// Rewind a drained queue onto the inline buffer so the next
				// burst appends in place instead of growing off the slid
				// window (a fresh heap slice per burst).
				s.queue = s.queueBuf[:0]
			}
		}
		s.inflight++
		n := s.conn.net
		p := n.newPacket()
		p.size = segPayload + HeaderSize
		p.kind = trace.KindData
		p.connID = s.conn.ID
		p.label = head.label
		p.sender = s
		p.msg = head
		p.segPayload = segPayload
		p.isMsgLast = isMsgLast
		n.transmit(s.from, s.to, p)
	}
}

// onSegmentArrived runs at the receiver when a data segment lands.
func (s *sender) onSegmentArrived(msg *outMsg, segPayload int, isMsgLast bool, at time.Duration) {
	msg.undeliv -= segPayload
	if msg.undeliv == 0 {
		if handler := s.conn.handlerAt(s.to); handler != nil {
			handler(Message{Payload: msg.payload, Size: msg.size, At: at})
		}
		if msg.delivered != nil {
			msg.delivered(at)
		}
		s.conn.net.releaseOutMsg(msg)
	}
	// Delayed ACK: one ACK per delayedAckCount segments, flushed immediately
	// when a message completes (mirrors the TCP quickack-on-PSH behaviour).
	s.unackedSegs++
	if s.unackedSegs >= delayedAckCount || isMsgLast {
		covered := s.unackedSegs
		s.unackedSegs = 0
		n := s.conn.net
		p := n.newPacket()
		p.size = AckSize
		p.kind = trace.KindACK
		p.connID = s.conn.ID
		p.sender = s
		p.ackCovered = covered
		n.transmit(s.to, s.from, p)
	}
}

// onAck runs at the sender when an ACK covering `covered` segments arrives.
func (s *sender) onAck(covered int) {
	s.inflight -= covered
	if s.inflight < 0 {
		s.inflight = 0
	}
	for i := 0; i < covered; i++ {
		if s.cwnd < SlowStartThreshold {
			s.cwnd++
		} else {
			s.cwnd += 1 / s.cwnd
		}
		if s.cwnd > MaxCwnd {
			s.cwnd = MaxCwnd
			break
		}
	}
	s.pump()
}

// Cwnd exposes the current congestion window of the direction from `from`,
// in segments (for tests and instrumentation).
func (c *Conn) Cwnd(from *Host) float64 { return c.senderFrom(from).cwnd }

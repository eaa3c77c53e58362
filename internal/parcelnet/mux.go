package parcelnet

import (
	"encoding/binary"
	"fmt"

	"github.com/parcel-go/parcel/internal/sched"
)

// parcelmux: the multiplexed, prioritized, flow-controlled stream layer.
//
// Written as one monolithic frame per release, a 1 MB hero image would
// head-of-line-block the 4 KB stylesheet queued behind it. parcelmux splits
// every object into a TStreamOpen frame plus interleaved TStreamData chunks,
// scheduled by a priority-weighted round
// robin: critical classes (HTML, CSS, scripts — the objects that gate first
// paint) get muxCriticalWeight turns for every bulk turn, and streams inside
// a class alternate chunk by chunk. HTTP/2-style windows bound how far the
// sender may run ahead of the client: each stream carries its own window and
// the connection carries a shared one, both refilled by TWindowUpdate
// credits. A zero-window stream is simply ineligible — it emits nothing.
//
// muxSender lives under the owning session's mutex; nextFrame is called only
// by the session writer goroutine and assembles complete frames (header
// included) into one reusable scratch buffer, so the steady-state data path
// is one syscall and zero allocations per chunk.

const (
	muxDefaultChunk        = 32 << 10
	muxDefaultStreamWindow = 256 << 10
	muxDefaultConnWindow   = 1 << 20

	// muxCriticalWeight is how many critical-class sends the scheduler makes
	// per bulk-class send while both classes have eligible streams.
	muxCriticalWeight = 8

	muxFlagEnd byte = 1 << 0

	muxClassCritical = 0
	muxClassBulk     = 1
)

// prioClass maps a content type onto a scheduler class: objects that block
// parsing or rendering are critical, everything else (images, fonts, video)
// is bulk.
func prioClass(contentType string) int {
	if sched.Critical(contentType) {
		return muxClassCritical
	}
	return muxClassBulk
}

// muxStream is one in-flight object push.
type muxStream struct {
	id          uint32
	class       int
	url         string
	contentType string
	status      int
	body        []byte // remaining bytes to send (resume offset already applied)
	sent        int    // bytes of body already framed
	offset      int64  // resume offset: client holds body bytes [0, offset)
	total       int64  // full object size
	window      int64  // stream-level send credit
	opened      bool
}

func (s *muxStream) remaining() int { return len(s.body) - s.sent }

// muxSender schedules a session's outbound streams. All fields are guarded
// by the owning session's mutex.
type muxSender struct {
	henc    MetaEncoder
	nextID  uint32
	classes [2][]*muxStream
	byID    map[uint32]*muxStream
	live    int

	chunk      int
	streamWin  int64
	connWindow int64
	critRuns   int // consecutive critical-class sends since the last bulk send

	scratch []byte // reusable frame assembly buffer
}

func newMuxSender(chunk int, streamWin, connWin int64) *muxSender {
	if chunk <= 0 {
		chunk = muxDefaultChunk
	}
	if streamWin <= 0 {
		streamWin = muxDefaultStreamWindow
	}
	if connWin <= 0 {
		connWin = muxDefaultConnWindow
	}
	return &muxSender{
		nextID:     1,
		byID:       make(map[uint32]*muxStream),
		chunk:      chunk,
		streamWin:  streamWin,
		connWindow: connWin,
		scratch:    make([]byte, 0, 5+9+chunk),
	}
}

// settingsPayload is what the proxy announces in TMuxSettings.
func (m *muxSender) settingsPayload() []byte {
	p := make([]byte, 12)
	binary.BigEndian.PutUint32(p[0:], uint32(m.streamWin))
	binary.BigEndian.PutUint32(p[4:], uint32(m.connWindow))
	binary.BigEndian.PutUint32(p[8:], uint32(m.chunk))
	return p
}

// add opens a stream for one object. body is the remaining bytes to push —
// for a resumed object the caller has already sliced off the first offset
// bytes. The sender holds body by reference and never mutates it, so
// shared-cache slices can be passed directly. The caller's pushq
// reservation for those bytes transfers to the stream: the writer releases
// it chunk by chunk as frames drain, or drain() hands the rest back when
// the session dies.
//
//parcelvet:transfer pushq
func (m *muxSender) add(url, contentType string, status int, body []byte, offset, total int64) *muxStream {
	s := &muxStream{
		id:          m.nextID,
		class:       prioClass(contentType),
		url:         url,
		contentType: contentType,
		status:      status,
		body:        body,
		offset:      offset,
		total:       total,
		window:      m.streamWin,
	}
	m.nextID++
	m.classes[s.class] = append(m.classes[s.class], s)
	m.byID[s.id] = s
	m.live++
	return s
}

// credit applies a TWindowUpdate: id 0 refills the connection window,
// anything else the matching stream (unknown ids — already-finished
// streams — are ignored). This is the release side of the muxwin pair:
// every byte debitWindows claims comes back here as the client acks.
//
//parcelvet:release muxwin
func (m *muxSender) credit(id, inc uint32) {
	if id == 0 {
		m.connWindow += int64(inc)
		return
	}
	if s, ok := m.byID[id]; ok {
		s.window += int64(inc)
	}
}

// eligible reports whether s may emit a frame right now. Flow control is
// strict: a stream with no window writes nothing, not even its open frame,
// and data additionally needs connection-level credit.
func (m *muxSender) eligible(s *muxStream) bool {
	if s.window <= 0 {
		return false
	}
	if s.remaining() > 0 && s.opened && m.connWindow <= 0 {
		return false
	}
	return true
}

// pickLocked chooses the next stream: critical drains ahead of bulk at a
// muxCriticalWeight:1 ratio, round-robin inside each class (the picked
// stream rotates to the back of its queue).
func (m *muxSender) pickLocked() *muxStream {
	first, second := muxClassCritical, muxClassBulk
	if m.critRuns >= muxCriticalWeight && m.eligibleIn(muxClassBulk) >= 0 {
		first, second = muxClassBulk, muxClassCritical
	}
	for _, class := range [2]int{first, second} {
		i := m.eligibleIn(class)
		if i < 0 {
			continue
		}
		q := m.classes[class]
		s := q[i]
		copy(q[i:], q[i+1:])
		q[len(q)-1] = s
		if class == muxClassCritical {
			m.critRuns++
		} else {
			m.critRuns = 0
		}
		return s
	}
	return nil
}

// eligibleIn returns the index of the first eligible stream in class, or -1.
func (m *muxSender) eligibleIn(class int) int {
	for i, s := range m.classes[class] {
		if m.eligible(s) {
			return i
		}
	}
	return -1
}

// nextFrame assembles the next scheduled frame into the sender's scratch
// buffer. It returns the complete frame (valid until the next call), the
// number of body bytes it drains from the session's queue accounting, and
// whether any stream was eligible. Called only by the writer goroutine,
// under the session mutex.
func (m *muxSender) nextFrame() (frame []byte, drained int, ok bool) {
	s := m.pickLocked()
	if s == nil {
		return nil, 0, false
	}
	if !s.opened {
		s.opened = true
		flags := byte(0)
		if s.remaining() == 0 {
			flags |= muxFlagEnd
			m.finish(s)
		}
		b := m.scratch[:0]
		b = append(b, TStreamOpen, 0, 0, 0, 0) // header, length patched below
		b = binary.BigEndian.AppendUint32(b, s.id)
		b = append(b, flags, byte(s.class))
		b = binary.AppendUvarint(b, uint64(s.offset))
		b = binary.AppendUvarint(b, uint64(s.total))
		// Metadata is encoded here, not at add time: the HPACK-lite dynamic
		// table syncs by frame order, and the priority scheduler emits opens
		// in a different order than the bundler queued them. Encoding at
		// emission keeps the encoder's prefix insertions aligned with what
		// the decoder sees.
		b = m.henc.AppendMeta(b, s.url, s.contentType, s.status)
		return m.sealFrame(b), 0, true
	}
	n := s.remaining()
	if n > m.chunk {
		n = m.chunk
	}
	if int64(n) > s.window {
		n = int(s.window)
	}
	if int64(n) > m.connWindow {
		n = int(m.connWindow)
	}
	chunk := s.body[s.sent : s.sent+n]
	s.sent += n
	m.debitWindows(s, n)
	flags := byte(0)
	if s.remaining() == 0 {
		flags |= muxFlagEnd
		m.finish(s)
	}
	b := m.scratch[:0]
	b = append(b, TStreamData, 0, 0, 0, 0)
	b = binary.BigEndian.AppendUint32(b, s.id)
	b = append(b, flags)
	b = append(b, chunk...)
	return m.sealFrame(b), n, true
}

// debitWindows claims n body bytes of s's per-stream window and the shared
// connection window before they go on the wire — the debit half of the
// muxwin pair that credit() refills from the client's TWindowUpdate acks.
//
//parcelvet:acquire muxwin
func (m *muxSender) debitWindows(s *muxStream, n int) {
	s.window -= int64(n)
	m.connWindow -= int64(n)
}

// sealFrame patches the frame-length header and retains the scratch buffer
// for the next assembly. Returning the sealed frame transfers the window
// claim to the wire: the bytes are the client's to ack back via credit().
//
//parcelvet:transfer muxwin
func (m *muxSender) sealFrame(b []byte) []byte {
	binary.BigEndian.PutUint32(b[1:5], uint32(len(b)-5))
	m.scratch = b
	return b
}

// finish removes a stream whose last frame was just assembled.
func (m *muxSender) finish(s *muxStream) {
	delete(m.byID, s.id)
	q := m.classes[s.class]
	for i, t := range q {
		if t == s {
			copy(q[i:], q[i+1:])
			q[len(q)-1] = nil
			m.classes[s.class] = q[:len(q)-1]
			break
		}
	}
	m.live--
}

// pendingBytes is the body bytes still queued across all live streams.
func (m *muxSender) pendingBytes() int64 {
	var n int64
	for _, q := range m.classes {
		for _, s := range q {
			n += int64(s.remaining())
		}
	}
	return n
}

// pendingURLs lists the live streams that still have unsent body bytes — the
// objects a drain notice must hand back to the client as pending work.
func (m *muxSender) pendingURLs() []string {
	var urls []string
	for _, q := range m.classes {
		for _, s := range q {
			if s.remaining() > 0 {
				urls = append(urls, s.url)
			}
		}
	}
	return urls
}

// drain empties the scheduler at session teardown and returns the body bytes
// whose push-budget reservation the caller must release. Idempotent: a
// second call finds nothing live and returns 0.
func (m *muxSender) drain() int64 {
	n := m.pendingBytes()
	m.classes[0], m.classes[1] = nil, nil
	m.byID = make(map[uint32]*muxStream)
	m.live = 0
	return n
}

// --- client side ---------------------------------------------------------

// windowAck is a flow-control credit the client owes the proxy.
type windowAck struct {
	id  uint32 // 0 = connection window
	inc uint32
}

// muxPart is one fully reassembled object.
type muxPart struct {
	URL         string
	ContentType string
	Status      int
	Class       int
	Body        []byte
	Resumed     bool
}

// inStream is one partially received object on the client.
type inStream struct {
	url         string
	contentType string
	status      int
	class       int
	total       int64
	buf         []byte
	resumed     bool
	consumed    uint32 // bytes since the stream's last WINDOW_UPDATE
}

// muxAssembler reassembles interleaved stream frames back into objects and
// produces the window credits that keep the proxy sending. One assembler
// serves one connection; a reconnect starts a fresh one (the HPACK tables
// reset with the connection).
type muxAssembler struct {
	hdec         MetaDecoder
	streams      map[uint32]*inStream
	streamWin    uint32
	connWin      uint32
	chunk        uint32
	connConsumed uint32

	// partial returns the bytes already held for a URL when the proxy
	// reopens a stream at a nonzero offset (resume), or nil.
	partial func(url string) []byte
}

func newMuxAssembler(partial func(url string) []byte) *muxAssembler {
	return &muxAssembler{
		streams:   make(map[uint32]*inStream),
		streamWin: muxDefaultStreamWindow,
		connWin:   muxDefaultConnWindow,
		chunk:     muxDefaultChunk,
		partial:   partial,
	}
}

func (a *muxAssembler) onSettings(p []byte) error {
	if len(p) < 12 {
		return fmt.Errorf("parcelnet: short mux settings frame (%d bytes)", len(p))
	}
	a.streamWin = binary.BigEndian.Uint32(p[0:])
	a.connWin = binary.BigEndian.Uint32(p[4:])
	a.chunk = binary.BigEndian.Uint32(p[8:])
	return nil
}

// onOpen handles a TStreamOpen payload. When the frame carries the END flag
// (empty or fully-resumed object) the completed part is returned.
func (a *muxAssembler) onOpen(p []byte) (*muxPart, error) {
	if len(p) < 6 {
		return nil, fmt.Errorf("parcelnet: short stream open frame (%d bytes)", len(p))
	}
	id := binary.BigEndian.Uint32(p[0:])
	flags := p[4]
	class := int(p[5])
	rest := p[6:]
	offset, rest, err := readUvarint(rest)
	if err != nil {
		return nil, err
	}
	total, rest, err := readUvarint(rest)
	if err != nil {
		return nil, err
	}
	if total > maxFrame || offset > total {
		return nil, fmt.Errorf("parcelnet: stream %d bad extent offset=%d total=%d", id, offset, total)
	}
	url, ct, status, _, err := a.hdec.ReadMeta(rest)
	if err != nil {
		return nil, err
	}
	if url == "" {
		return nil, fmt.Errorf("parcelnet: stream %d has empty URL", id)
	}
	if _, dup := a.streams[id]; dup {
		return nil, fmt.Errorf("parcelnet: duplicate stream id %d", id)
	}
	s := &inStream{
		url:         url,
		contentType: ct,
		status:      status,
		class:       class,
		total:       int64(total),
	}
	if offset > 0 {
		held := a.partial(url)
		if uint64(len(held)) != offset {
			return nil, fmt.Errorf("parcelnet: stream %d resume offset %d but client holds %d bytes", id, offset, len(held))
		}
		s.buf = make([]byte, 0, total)
		s.buf = append(s.buf, held...)
		s.resumed = true
	} else if total > 0 {
		s.buf = make([]byte, 0, total)
	}
	if flags&muxFlagEnd != 0 {
		return &muxPart{URL: url, ContentType: ct, Status: status, Class: class, Body: s.buf, Resumed: s.resumed}, nil
	}
	a.streams[id] = s
	return nil, nil
}

// onData handles a TStreamData payload. It returns the completed part when
// the END flag closes the stream, plus any window credits now due. The
// chunk bytes are copied out of p, so the caller may recycle the frame
// buffer immediately.
func (a *muxAssembler) onData(p []byte) (*muxPart, []windowAck, error) {
	if len(p) < 5 {
		return nil, nil, fmt.Errorf("parcelnet: short stream data frame (%d bytes)", len(p))
	}
	id := binary.BigEndian.Uint32(p[0:])
	flags := p[4]
	chunk := p[5:]
	s, ok := a.streams[id]
	if !ok {
		return nil, nil, fmt.Errorf("parcelnet: data for unknown stream %d", id)
	}
	if int64(len(s.buf)+len(chunk)) > s.total {
		return nil, nil, fmt.Errorf("parcelnet: stream %d overflows declared size %d", id, s.total)
	}
	s.buf = append(s.buf, chunk...)
	s.consumed += uint32(len(chunk))
	a.connConsumed += uint32(len(chunk))
	var acks []windowAck
	if a.connConsumed >= a.connWin/2 && a.connWin > 0 {
		acks = append(acks, windowAck{id: 0, inc: a.connConsumed})
		a.connConsumed = 0
	}
	if flags&muxFlagEnd != 0 {
		delete(a.streams, id)
		return &muxPart{URL: s.url, ContentType: s.contentType, Status: s.status, Class: s.class, Body: s.buf, Resumed: s.resumed}, acks, nil
	}
	if s.consumed >= a.streamWin/2 && a.streamWin > 0 {
		acks = append(acks, windowAck{id: id, inc: s.consumed})
		s.consumed = 0
	}
	return nil, acks, nil
}

// partials snapshots every incomplete stream as url -> bytes held. A
// disconnecting client harvests this into its resume manifest so the next
// connection can reopen the streams mid-object.
func (a *muxAssembler) partials() map[string][]byte {
	if len(a.streams) == 0 {
		return nil
	}
	out := make(map[string][]byte, len(a.streams))
	for _, s := range a.streams {
		if len(s.buf) > 0 {
			out[s.url] = s.buf
		}
	}
	return out
}

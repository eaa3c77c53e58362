// Package parcelnet is the real-network implementation of PARCEL: a proxy
// and client speaking a framed stream protocol over real TCP connections,
// plus an HTTP origin server that serves replay archives. It is the
// deployable counterpart of the simulated internal/core — same split of
// functionality (proxy-side object identification and push, client-side
// local execution), running over net.Conn with optional netem shaping.
package parcelnet

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"

	"github.com/parcel-go/parcel/internal/sched"
)

// Frame types.
const (
	TPageRequest   byte = iota + 1
	_                   // 2 is retired: the monolithic bundle frame
	TComplete           // payload: JSON CompleteNote
	TObjectRequest      // payload: JSON ObjectRequest; the answer is a stream
	_                   // 5 is retired: the MHTML fallback answer
	TShed               // payload: JSON ShedNote — objects the proxy will not push

	// parcelmux frame types: the multiplexed stream layer. Pushed objects
	// arrive as interleaved per-stream chunks, so a large object cannot
	// head-of-line-block small critical ones.
	TMuxSettings  // payload: [u32 streamWindow][u32 connWindow][u32 chunkSize]
	TStreamOpen   // payload: [u32 id][flags][prio][uvarint offset,total][meta]
	TStreamData   // payload: [u32 id][flags][chunk bytes]
	TWindowUpdate // payload: [u32 id (0 = connection)][u32 increment]

	TDrain // payload: JSON DrainNote — the proxy is retiring this session
)

// maxFrame bounds a frame payload (64 MB) against corrupt length prefixes.
const maxFrame = 64 << 20

// PageRequest asks the proxy to load a page. Have lists objects the client
// already holds — a reconnecting client resumes its session by re-sending the
// request with a manifest, and the proxy pushes only what is still missing.
// Partial extends the manifest to streams that were cut mid-object: the proxy
// re-opens those streams at the recorded offset instead of resending the
// prefix. The proxy answers with TMuxSettings before the first stream.
type PageRequest struct {
	URL       string          `json:"url"`
	UserAgent string          `json:"user_agent,omitempty"`
	Screen    string          `json:"screen,omitempty"`
	Have      []string        `json:"have,omitempty"`
	Partial   []sched.Partial `json:"partial,omitempty"`
}

// CompleteNote is the §4.5 completion notification: the page session's books
// (sched.Counts) — pushes, resume skips and offsets, admission outcomes, and
// shared-cache effectiveness — as its JSON.
type CompleteNote struct{ sched.Counts }

// ShedNote tells the client which objects the proxy's admission control
// dropped from the push schedule: the client completes them itself over its
// direct-origin path (or a fallback object request). Shedding trades
// PARCEL's push benefit for bounded proxy memory — DIR degradation, not OOM.
type ShedNote struct {
	URLs []string `json:"urls"`
}

// ObjectRequest is the client's missing-object fallback (§4.5). The proxy
// answers it with a stream, admitted like any push.
type ObjectRequest struct {
	URL string `json:"url"`
}

// DrainNote is the proxy's graceful-shutdown handoff: the session should move
// off this connection because the proxy is retiring. Pending lists objects the
// proxy had scheduled but will no longer deliver (parked deferrals and mux
// streams with unsent bytes); the client folds them into the resume manifest
// it replays at the next proxy — or fetches them over its direct-origin path —
// so a drain loses no objects.
type DrainNote struct {
	Pending []string `json:"pending,omitempty"`
}

// WriteFrame writes one framed message, [type][uint32 length][payload], in
// one Write. It is safe for concurrent use per writer via the caller's lock;
// a FrameWriter adds the lock and reuses one assembly buffer.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	_, err := writeFrame(w, nil, typ, payload)
	return err
}

// writeFrame assembles one frame in buf's storage and writes it in one Write.
// It returns the buffer for reuse.
func writeFrame(w io.Writer, buf []byte, typ byte, payload []byte) ([]byte, error) {
	if len(payload) > maxFrame {
		return buf, fmt.Errorf("parcelnet: frame of %d bytes exceeds limit", len(payload))
	}
	buf = append(appendHeader(buf[:0], typ, len(payload)), payload...)
	_, err := w.Write(buf)
	return buf, err
}

// appendHeader appends a frame header: [type][uint32 payload length].
func appendHeader(b []byte, typ byte, n int) []byte {
	return binary.BigEndian.AppendUint32(append(b, typ), uint32(n))
}

// ReadFramePooled reads one framed message into a buffer from the
// size-bucketed frame pool. Both read loops call it through a bufio.Reader,
// so one socket read serves every frame it delivered, and the header is
// peeked in place rather than copied out. The caller owns the payload until
// it calls ReleaseFrameBuf — after that the bytes may be reused by another
// frame, so anything retained (object bodies, strings) must be copied out
// first. The pairing analyzer enforces the contract: on a nil error every
// path must release the payload (a read error releases it internally).
//
//parcelvet:acquire framebuf
func ReadFramePooled(r *bufio.Reader) (typ byte, payload []byte, err error) {
	hdr, err := r.Peek(5)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	typ = hdr[0]
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("parcelnet: frame length %d exceeds limit", n)
	}
	if _, err := r.Discard(5); err != nil {
		return 0, nil, err
	}
	payload = grabFrameBuf(int(n))
	if _, err := io.ReadFull(r, payload); err != nil {
		ReleaseFrameBuf(payload)
		return 0, nil, err
	}
	return typ, payload, nil
}

// FrameWriter serializes concurrent frame writes onto one connection. Each
// frame leaves in one Write, assembled in a buffer reused under the lock.
type FrameWriter struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
}

// NewFrameWriter wraps w.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// Write sends one frame atomically.
func (fw *FrameWriter) Write(typ byte, payload []byte) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	var err error
	fw.buf, err = writeFrame(fw.w, fw.buf, typ, payload)
	return err
}

// WriteJSON marshals v and sends it as a frame of the given type.
func (fw *FrameWriter) WriteJSON(typ byte, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return fw.Write(typ, data)
}

// WriteWindowUpdate sends one flow-control credit: the receiver consumed
// increment bytes of streamID (0 credits the connection-level window).
func (fw *FrameWriter) WriteWindowUpdate(streamID, increment uint32) error {
	var p [8]byte
	binary.BigEndian.PutUint32(p[0:], streamID)
	binary.BigEndian.PutUint32(p[4:], increment)
	return fw.Write(TWindowUpdate, p[:])
}

// batchBytes bounds one pass of the proxy's writer: it drains frames into a
// frameBatch until the batch holds this many wire bytes (the last frame may
// run past it), then sends the batch in one write.
const batchBytes = 64 << 10

// frameBatch is one pass of the proxy's writer: whole frames in wire order.
// Frame headers, open frames and headers of control frames are appended to
// head. Payloads that are already immutable bytes (cached object bodies,
// queued control notes) stay where they are as refs, so on a conn that can
// gather, a batch copies no body byte. Only the session's writer goroutine
// touches a batch.
type frameBatch struct {
	head     []byte
	refs     []batchRef
	refBytes int
	body     int64 // stream body bytes in the batch: what Drained books once it is written

	iov  net.Buffers // the gathered view: head segments interleaved with refs
	out  net.Buffers // iov as writev consumes it
	flat []byte      // the batch copied into one buffer, for conns that cannot gather
}

// batchRef is a payload sent in place, right after head[:at].
type batchRef struct {
	at int
	p  []byte
}

// size is the batch's length on the wire.
func (b *frameBatch) size() int { return len(b.head) + b.refBytes }

// full reports whether the batch has reached batchBytes.
func (b *frameBatch) full() bool { return b.size() >= batchBytes }

// frame appends one control frame; its payload is sent in place.
func (b *frameBatch) frame(typ byte, payload []byte) {
	b.head = appendHeader(b.head, typ, len(payload))
	b.ref(payload)
}

// chunk appends a stream data chunk, whose header is already in head, by
// reference and books its bytes as drained body. Handing the chunk to the
// batch transfers its window claim to the wire: the bytes are the client's to
// ack back via muxSender.credit.
//
//parcelvet:transfer muxwin
func (b *frameBatch) chunk(p []byte) {
	b.ref(p)
	b.body += int64(len(p))
}

// ref sends p in place at the current end of head.
func (b *frameBatch) ref(p []byte) {
	if len(p) > 0 {
		b.refs = append(b.refs, batchRef{at: len(b.head), p: p})
		b.refBytes += len(p)
	}
}

// gather returns the batch as segments in wire order.
func (b *frameBatch) gather() net.Buffers {
	iov, at := b.iov[:0], 0
	for _, r := range b.refs {
		if r.at > at {
			iov = append(iov, b.head[at:r.at])
			at = r.at
		}
		iov = append(iov, r.p)
	}
	if at < len(b.head) {
		iov = append(iov, b.head[at:])
	}
	b.iov = iov
	return iov
}

// flatten returns the batch as one contiguous buffer.
func (b *frameBatch) flatten() []byte {
	if len(b.refs) == 0 {
		return b.head
	}
	flat := b.flat[:0]
	for _, seg := range b.gather() {
		flat = append(flat, seg...)
	}
	b.flat = flat
	return flat
}

// reset empties the batch and drops its references to payloads.
func (b *frameBatch) reset() {
	b.head = b.head[:0]
	clear(b.refs)
	b.refs = b.refs[:0]
	clear(b.iov)
	b.refBytes, b.body = 0, 0
}

// writeBatch sends b in one write: gathered (writev) on a *net.TCPConn,
// flattened into b's reused buffer on any other conn, such as a
// ProxyConfig.WrapConn wrapper.
func writeBatch(w io.Writer, b *frameBatch) error {
	if _, ok := w.(*net.TCPConn); ok && len(b.refs) > 0 {
		b.out = b.gather()
		_, err := b.out.WriteTo(w)
		return err
	}
	_, err := w.Write(b.flatten())
	return err
}

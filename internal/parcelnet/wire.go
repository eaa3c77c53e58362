// Package parcelnet is the real-network implementation of PARCEL: a proxy
// and client speaking a framed stream protocol over real TCP connections,
// plus an HTTP origin server that serves replay archives. It is the
// deployable counterpart of the simulated internal/core — same split of
// functionality (proxy-side object identification and push, client-side
// local execution), running over net.Conn with optional netem shaping.
package parcelnet

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
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

// WriteFrame writes one framed message: [type][uint32 length][payload].
// It is safe for concurrent use per writer via the caller's lock; use
// a FrameWriter for built-in locking.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("parcelnet: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [5]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFramePooled reads one framed message into a buffer from the
// size-bucketed frame pool. The caller owns the payload until it calls
// ReleaseFrameBuf — after that the bytes may be reused by another frame, so
// anything retained (object bodies, strings) must be copied out first. The
// pairing analyzer enforces the contract: on a nil error every path must
// release the payload (a read error releases it internally).
//
//parcelvet:acquire framebuf
func ReadFramePooled(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	typ = hdr[0]
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("parcelnet: frame length %d exceeds limit", n)
	}
	payload = grabFrameBuf(int(n))
	if _, err := io.ReadFull(r, payload); err != nil {
		ReleaseFrameBuf(payload)
		return 0, nil, err
	}
	return typ, payload, nil
}

// FrameWriter serializes concurrent frame writes onto one connection.
type FrameWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// NewFrameWriter wraps w.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// Write sends one frame atomically.
func (fw *FrameWriter) Write(typ byte, payload []byte) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return WriteFrame(fw.w, typ, payload)
}

// WriteJSON marshals v and sends it as a frame of the given type.
func (fw *FrameWriter) WriteJSON(typ byte, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return fw.Write(typ, data)
}

// WriteRaw sends one pre-assembled frame — the 5-byte header is already in
// place — as a single write. The mux sender builds frames into a reusable
// buffer and ships them through here so a data chunk costs one syscall and
// zero allocations.
func (fw *FrameWriter) WriteRaw(frame []byte) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	_, err := fw.w.Write(frame)
	return err
}

// WriteWindowUpdate sends one flow-control credit: the receiver consumed
// increment bytes of streamID (0 credits the connection-level window).
func (fw *FrameWriter) WriteWindowUpdate(streamID, increment uint32) error {
	var p [8]byte
	binary.BigEndian.PutUint32(p[0:], streamID)
	binary.BigEndian.PutUint32(p[4:], increment)
	return fw.Write(TWindowUpdate, p[:])
}

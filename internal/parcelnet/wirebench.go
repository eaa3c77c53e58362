package parcelnet

import (
	"fmt"
	"io"
)

// WireBench exposes the parcelmux encode/decode hot path to the benchmark
// module (bench/layers.go) and to TestWireBenchAllocFree, which gates the
// steady-state per-frame and per-batch cost at zero allocations per
// operation. The mux internals are deliberately unexported; this harness is
// the one sanctioned way to drive them from outside the package.
//
// EncodeStep cycles one sender over a fixed body: each call appends the next
// frame to a reused frameBatch, and when the stream ends it is re-armed (and
// the connection window re-credited), so the amortized cost of a long run is
// the per-chunk cost a session writer pays. DecodeStep replays one
// pre-encoded stream cycle through an assembler the same way.
type WireBench struct {
	s    *muxSender
	a    *muxAssembler
	b    frameBatch
	body []byte

	frames [][]byte // one full stream cycle, pre-encoded for decode replay
	next   int
}

const wireBenchURL = "https://bench.test/assets/hero.png"

// NewWireBench builds a harness pushing a bodyLen-byte object in chunk-byte
// frames. Windows are sized so flow control never stalls the cycle.
func NewWireBench(bodyLen, chunk int) *WireBench {
	wb := &WireBench{body: make([]byte, bodyLen)}
	for i := range wb.body {
		wb.body[i] = byte(i)
	}
	wb.s = newMuxSender(chunk, 1<<30, 1<<30)
	wb.arm()

	// Pre-encode one full cycle, a frame at a time, so the decode benchmark
	// measures only the assembler.
	enc := newMuxSender(chunk, 1<<30, 1<<30)
	enc.add(wireBenchURL, "image/png", 200, wb.body, 0, int64(len(wb.body)))
	var b frameBatch
	for enc.nextFrame(&b) {
		wb.frames = append(wb.frames, append([]byte(nil), b.flatten()...))
		b.reset()
	}
	wb.a = newMuxAssembler(func(string) []byte { return nil })
	if err := wb.a.onSettings(enc.settingsPayload()); err != nil {
		panic(err)
	}
	return wb
}

func (wb *WireBench) arm() {
	wb.s.add(wireBenchURL, "image/png", 200, wb.body, 0, int64(len(wb.body)))
}

// appendFrame appends the next frame to the batch, re-arming the stream (and
// refilling the connection window) when it has ended.
func (wb *WireBench) appendFrame() {
	if wb.s.nextFrame(&wb.b) {
		return
	}
	wb.s.credit(0, uint32(len(wb.body)))
	wb.arm()
	if !wb.s.nextFrame(&wb.b) {
		panic("parcelnet: WireBench sender stalled with a live stream")
	}
}

// EncodeStep appends the next outbound frame to an emptied batch and returns
// the frame's wire length.
func (wb *WireBench) EncodeStep() int {
	wb.b.reset()
	wb.appendFrame()
	return wb.b.size()
}

// encodeBatch fills one whole batch, as a session writer's pass does, and
// writes it to w.
func (wb *WireBench) encodeBatch(w io.Writer) error {
	wb.b.reset()
	for !wb.b.full() {
		wb.appendFrame()
	}
	return writeBatch(w, &wb.b)
}

// DecodeStep feeds the next pre-encoded frame to the assembler and returns
// the payload length.
func (wb *WireBench) DecodeStep() (int, error) {
	f := wb.frames[wb.next]
	if wb.next++; wb.next == len(wb.frames) {
		wb.next = 0
	}
	payload := f[5:]
	switch f[0] {
	case TStreamOpen:
		_, err := wb.a.onOpen(payload)
		return len(payload), err
	case TStreamData:
		_, _, err := wb.a.onData(payload)
		return len(payload), err
	}
	return 0, fmt.Errorf("parcelnet: WireBench cycle holds unexpected frame type %d", f[0])
}

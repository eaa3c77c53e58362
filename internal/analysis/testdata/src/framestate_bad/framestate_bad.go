// Package framestate_bad exercises the framestate analyzer: unregistered
// emitters, phase-order regressions, emission past the TComplete barrier, and
// a frame type the declared state machine does not know.
package framestate_bad

const (
	TPageRequest byte = iota + 1
	TComplete
	TObjectRequest
	_
	TShed
	TMuxSettings
	TStreamOpen
	TStreamData
	TWindowUpdate
	TDrain
	TBogus // not declared in the protocol state machine
)

func write(typ byte, payload []byte) error {
	_ = typ
	_ = payload
	return nil
}

type outFrame struct {
	typ     byte
	payload []byte
}

// rogue is not registered for stream data: a new emitter is a protocol
// change and must be declared in frameEmitters.
func rogue() {
	write(TStreamData, nil) // want "rogue emits TStreamData but is not a registered emitter for it: the protocol state machine allows only nextFrame"
}

// nextFrame owns both stream frames but emits them out of phase: data cannot
// precede the open that names the stream.
func nextFrame() {
	write(TStreamData, nil)
	write(TStreamOpen, nil) // want "nextFrame emits TStreamOpen after TStreamData: protocol phase order violated"
}

// writeLoop crosses the TComplete barrier backwards: a shed note after the
// completion note is both a phase regression and an undeclared emitter.
func writeLoop() {
	write(TComplete, nil)
	write(TShed, nil) // want "writeLoop emits TShed but is not a registered emitter" "writeLoop emits TShed after TComplete: protocol phase order violated"
}

// declareComplete stages the frame through a composite literal instead of a
// write call; still an emission, and only the writer may cross the barrier.
func declareComplete() {
	f := outFrame{typ: TComplete} // want "declareComplete emits TComplete but is not a registered emitter for it: the protocol state machine allows only writeLoop"
	_ = f
}

// bogus emits a frame type the state machine has never heard of.
func bogus() {
	write(TBogus, nil) // want "frame type TBogus is not in the declared protocol state machine"
}

// Package framestate_clean is the negative space of framestate_bad: every
// emission comes from its registered emitter in non-decreasing phase order,
// frame-type reads are free, and one rogue emission is allow-waived.
package framestate_clean

const (
	TPageRequest byte = iota + 1
	TComplete
	TObjectRequest
	TObjectResponse
	TShed
	TMuxSettings
	TStreamOpen
	TStreamData
	TWindowUpdate
	TDrain
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

// The registered handshake, stream, note, and barrier emitters, each in
// legal phase order.
func RequestPage() {
	write(TPageRequest, nil)
}

func startPage() {
	write(TMuxSettings, nil)
}

func nextFrame() {
	write(TStreamOpen, nil)
	write(TStreamData, nil)
}

func shedLocked() {
	write(TShed, nil)
}

func drainNotice() {
	write(TDrain, nil)
}

// writeLoop owns the completion barrier, staged as a composite literal.
func writeLoop() {
	f := outFrame{typ: TComplete}
	_ = f
}

// dispatch only reads frame types — switch cases and comparisons are never
// emissions.
func dispatch(typ byte) int {
	switch typ {
	case TShed:
		return 1
	case TComplete:
		return 2
	}
	if typ == TDrain {
		return 3
	}
	return 0
}

// repair is a deliberate out-of-table emitter, waived with a reasoned
// directive.
func repair() {
	//parcelvet:allow framestate(fixture: manual stream resync during recovery)
	write(TStreamOpen, nil)
}

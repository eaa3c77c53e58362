package parcelnet

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzFrame hammers the pooled frame reader with arbitrary byte streams:
// corrupt length prefixes, truncated headers, and short payloads must all
// surface as errors — never panics — and anything that does parse must
// round-trip bit-exact through WriteFrame.
func FuzzFrame(f *testing.F) {
	var seed bytes.Buffer
	WriteFrame(&seed, TShed, []byte("hello"))
	f.Add(seed.Bytes())
	seed.Reset()
	WriteFrame(&seed, TStreamData, append(binary.BigEndian.AppendUint32(nil, 3), 0, 'x', 'y'))
	f.Add(seed.Bytes())
	f.Add([]byte{TShed, 0xFF, 0xFF, 0xFF, 0xFF})            // over-limit length
	f.Add([]byte{TComplete, 0, 0, 0, 10, 'a', 'b'})         // truncated payload
	f.Add([]byte{})                                         // empty
	f.Add([]byte{TWindowUpdate, 0, 0, 0, 8, 0, 0, 0, 1, 0}) // short window update

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 5 {
			// Bound the declared length so the fuzzer cannot spend its budget
			// allocating tens of megabytes per exec; the over-limit rejection
			// is covered by the seed above.
			if n := binary.BigEndian.Uint32(data[1:5]); n > 8<<20 && n <= maxFrame {
				t.Skip()
			}
		}
		typ, payload, err := ReadFramePooled(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if werr := WriteFrame(&buf, typ, payload); werr != nil {
			t.Fatalf("re-encode of parsed frame failed: %v", werr)
		}
		if !bytes.Equal(buf.Bytes(), data[:5+len(payload)]) {
			t.Fatalf("frame round-trip diverged")
		}
		ReleaseFrameBuf(payload)
	})
}

// FuzzMux drives the client-side stream assembler with arbitrary frame
// sequences: interleaved and duplicate stream IDs, corrupt metadata,
// truncated chunks, and bogus extents must error cleanly, and whatever does
// assemble must respect the declared object size. The seed corpus is a real
// sender's output so the valid path stays covered.
func FuzzMux(f *testing.F) {
	// Seed: a real two-stream interleaving produced by the sender.
	m := newMuxSender(8, 1<<20, 1<<20)
	m.add("http://seed.test/a.css", "text/css", 200, []byte("body{color:red}"), 0, 15)
	m.add("http://seed.test/b.png", "image/png", 200, bytes.Repeat([]byte("P"), 24), 0, 24)
	seq := [][]byte{append([]byte{TMuxSettings}, m.settingsPayload()...)}
	for {
		frame, _, ok := m.nextFrame()
		if !ok {
			break
		}
		// nextFrame returns [type][len][payload]; re-pack as type+payload.
		seq = append(seq, append([]byte{frame[0]}, frame[5:]...))
	}
	var stream bytes.Buffer
	for _, s := range seq {
		stream.Write(binary.BigEndian.AppendUint32(nil, uint32(len(s))))
		stream.Write(s)
	}
	f.Add(stream.Bytes())
	f.Add([]byte{0, 0, 0, 1, TStreamData})
	f.Add([]byte{0, 0, 0, 6, TStreamOpen, 0, 0, 0, 1, 9})

	f.Fuzz(func(t *testing.T, data []byte) {
		a := newMuxAssembler(func(string) []byte { return []byte("pp") })
		total := 0
		// The input is a sequence of length-prefixed (type, payload) records.
		for len(data) >= 4 && total < 1<<20 {
			n := int(binary.BigEndian.Uint32(data[:4]))
			data = data[4:]
			if n < 1 || n > len(data) {
				return
			}
			rec := data[:n]
			data = data[n:]
			typ, payload := rec[0], rec[1:]
			total += len(payload)
			switch typ {
			case TMuxSettings:
				if err := a.onSettings(payload); err != nil {
					return
				}
			case TStreamOpen:
				part, err := a.onOpen(payload)
				if err != nil {
					return
				}
				if part != nil && int64(len(part.Body)) > maxFrame {
					t.Fatalf("assembled part larger than any legal object: %d", len(part.Body))
				}
			case TStreamData:
				part, _, err := a.onData(payload)
				if err != nil {
					return
				}
				if part != nil && len(part.Body) == 0 && len(payload) > 5 {
					// END frames may close an empty stream, but a non-empty
					// chunk cannot vanish.
					t.Fatal("non-empty chunk assembled into empty body")
				}
			default:
				return
			}
		}
		// Harvesting partials must always be safe, whatever state fuzzing
		// left the assembler in.
		for u, b := range a.partials() {
			if u == "" || len(b) == 0 {
				t.Fatalf("degenerate partial %q (%d bytes)", u, len(b))
			}
		}
	})
}

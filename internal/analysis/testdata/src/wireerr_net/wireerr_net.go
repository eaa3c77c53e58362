// Package wireerr_net is the positive wireerr fixture: every way the
// analyzer must catch a discarded framed-wire or deadline error.
package wireerr_net

import "time"

type conn struct{}

func (c *conn) SetReadDeadline(t time.Time) error  { return nil }
func (c *conn) SetWriteDeadline(t time.Time) error { return nil }

type FrameWriter struct{}

func (w *FrameWriter) WriteFrame(typ byte, payload []byte) error    { return nil }
func (w *FrameWriter) WriteJSON(typ byte, v any) error              { return nil }
func (w *FrameWriter) Write(p []byte) (int, error)                  { return len(p), nil }
func (w *FrameWriter) WriteWindowUpdate(id, increment uint32) error { return nil }

// writeBatch mirrors the proxy writer's one write per frame batch.
func writeBatch(c *conn, b []byte) error { return nil }

type session struct{}

// enqueueJSONLocked mirrors the proxy's control-note staging point: its
// error means the note never reached the send queue.
func (s *session) enqueueJSONLocked(typ byte, v any) error { return nil }

// stageNoteLocked mirrors the completion note's staging point behind the
// stream barrier.
func (s *session) stageNoteLocked(v any) error { return nil }

func bad(c *conn, w *FrameWriter) {
	c.SetReadDeadline(time.Time{})      // want "error from SetReadDeadline discarded"
	w.WriteFrame(1, nil)                // want "error from WriteFrame discarded"
	go w.WriteJSON(1, nil)              // want "error from WriteJSON discarded by go statement"
	defer w.WriteFrame(2, nil)          // want "error from WriteFrame discarded by defer"
	_ = c.SetWriteDeadline(time.Time{}) // want "error from SetWriteDeadline assigned to blank identifier"
	_, _ = w.Write(nil)                 // want "error from Write assigned to blank identifier"
	writeBatch(c, nil)                  // want "error from writeBatch discarded"
	go w.WriteWindowUpdate(1, 64)       // want "error from WriteWindowUpdate discarded by go statement"
	_ = w.WriteWindowUpdate(0, 1)       // want "error from WriteWindowUpdate assigned to blank identifier"
}

func badControlNotes(s *session) {
	s.enqueueJSONLocked(9, nil)      // want "error from enqueueJSONLocked discarded"
	_ = s.enqueueJSONLocked(10, nil) // want "error from enqueueJSONLocked assigned to blank identifier"
	go s.enqueueJSONLocked(11, nil)  // want "error from enqueueJSONLocked discarded by go statement"
	s.stageNoteLocked(nil)           // want "error from stageNoteLocked discarded"
}

func allowedDiscard(w *FrameWriter) {
	//parcelvet:allow wireerr(fixture: best-effort notification on an already-dying session)
	w.WriteFrame(3, nil)
}

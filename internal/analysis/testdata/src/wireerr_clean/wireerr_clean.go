// Package wireerr_clean is the negative wireerr fixture: every wire and
// deadline error is handled, and Write on a non-FrameWriter type stays
// outside the rule.
package wireerr_clean

import "time"

type conn struct{}

func (c *conn) SetReadDeadline(t time.Time) error { return nil }

type FrameWriter struct{}

func (w *FrameWriter) WriteFrame(typ byte, payload []byte) error    { return nil }
func (w *FrameWriter) WriteWindowUpdate(id, increment uint32) error { return nil }

func writeBatch(c *conn, b []byte) error { return nil }

type metrics struct{}

// Write here is not the framed-wire writer; its result may be discarded.
func (m *metrics) Write(p []byte) (int, error) { return len(p), nil }

type session struct{}

func (s *session) enqueueJSONLocked(typ byte, v any) error { return nil }

// goodControlNotes handles the staging error by tearing the session down.
func goodControlNotes(s *session, logf func(string, ...any)) error {
	if err := s.enqueueJSONLocked(9, nil); err != nil {
		logf("control note: %v", err)
		return err
	}
	return nil
}

func good(c *conn, w *FrameWriter, m *metrics, logf func(string, ...any)) error {
	if err := c.SetReadDeadline(time.Time{}); err != nil {
		logf("deadline: %v", err)
		return err
	}
	if err := w.WriteFrame(1, nil); err != nil {
		logf("frame: %v", err)
		return err
	}
	if err := writeBatch(c, nil); err != nil {
		logf("batch: %v", err)
		return err
	}
	if err := w.WriteWindowUpdate(1, 64); err != nil {
		logf("window update: %v", err)
		return err
	}
	m.Write(nil)
	return nil
}

//go:build simdebug

package discovery

import "testing"

// These tests only exist under -tags simdebug: they prove the identity
// index's immutability check fires. In normal builds an index hit is
// trusted, so a mutated body would replay its old artifact silently.

func expectPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s of a mutated body: expected panic, got none", what)
		}
	}()
	f()
}

func TestMutatedBodyPanics(t *testing.T) {
	body := htmlBody(256)
	HTML(body)
	body[len(body)-2] = 'X'
	expectPanic(t, "HTML", func() { HTML(body) })

	css := cssBody(256)
	CSSRefs(css, "http://a.test/s.css")
	css[0] = 'B'
	expectPanic(t, "CSSRefs", func() { CSSRefs(css, "http://a.test/s.css") })
}

//go:build simdebug

package minijs

import "testing"

// TestMutatedScriptPanics only exists under -tags simdebug: it proves the
// identity index's immutability check fires for the program memo.
func TestMutatedScriptPanics(t *testing.T) {
	src := []byte("var mutated_probe = 1;")
	if _, err := CompileBytes(src); err != nil {
		t.Fatal(err)
	}
	src[len(src)-2] = '2'
	defer func() {
		if recover() == nil {
			t.Fatal("CompileBytes of a mutated body: expected panic, got none")
		}
	}()
	CompileBytes(src)
}

package httpsim

import (
	"fmt"
	"testing"
)

// TestContentValidatorFormat pins the validator's shape: 16 lowercase hex
// digits for every body length, the same digits for the same bytes, and
// different digits when one byte moves.
func TestContentValidatorFormat(t *testing.T) {
	seen := map[string]int{}
	for n := 0; n < 300; n++ {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte('A' + i%23)
		}
		v := ContentValidator(body)
		if len(v) != 16 {
			t.Fatalf("len %d: validator %q has %d characters, want 16", n, v, len(v))
		}
		for _, c := range v {
			if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
				t.Fatalf("len %d: validator %q is not lowercase hex", n, v)
			}
		}
		if again := ContentValidator(append([]byte(nil), body...)); again != v {
			t.Fatalf("len %d: validator %q then %q for the same bytes", n, v, again)
		}
		if prev, dup := seen[v]; dup {
			t.Fatalf("lengths %d and %d share validator %q", prev, n, v)
		}
		seen[v] = n
		if n > 0 {
			body[n/2] ^= 1
			if ContentValidator(body) == v {
				t.Fatalf("len %d: flipping one bit kept validator %q", n, v)
			}
		}
	}
}

// BenchmarkContentValidator is the validator's throughput over body sizes a
// page set holds: a small script, a median image and the largest image.
func BenchmarkContentValidator(b *testing.B) {
	for _, n := range []int{2 << 10, 10 << 10, 1 << 20} {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte('A' + i%23)
		}
		b.Run(fmt.Sprintf("%dKB", n>>10), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				ContentValidator(body)
			}
		})
	}
}

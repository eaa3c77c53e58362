// Package pool_clean is the negative pooldiscipline fixture: the idiomatic
// pool shapes the analyzer must accept — a typed-chain free list inside the
// pool implementation, free-then-return paths, sibling branches, and
// reassignment re-arming a variable.
package pool_clean

// buf is pooled: declared in pooledTypes.
type buf struct {
	next *buf
	n    int
}

type pool struct{ free *buf }

// The pool implementation (new*/put*) may move pooled pointers through its
// own free-list fields and hand objects out.
func (p *pool) newBuf() *buf {
	if b := p.free; b != nil {
		p.free = b.next
		b.next = nil
		return b
	}
	return &buf{}
}

func (p *pool) putBuf(b *buf) {
	b.n = 0
	b.next = p.free
	p.free = b
}

// Free as the final act of each iteration: nothing after it uses b.
func sum(p *pool, xs []int) int {
	total := 0
	for _, x := range xs {
		b := p.newBuf()
		b.n = x
		total += b.n
		p.putBuf(b)
	}
	return total
}

// Free on an early-return path: the later use is unreachable from the free.
func freeOnReturnPath(p *pool, b *buf, done bool) int {
	if done {
		p.putBuf(b)
		return 0
	}
	return b.n
}

// Free in one branch, use in the sibling branch: never both on one path.
func siblingBranches(p *pool, b *buf, keep bool) int {
	if keep {
		return b.n
	} else {
		p.putBuf(b)
	}
	return 0
}

// A reassignment re-arms the variable with a fresh object.
func rearm(p *pool) int {
	b := p.newBuf()
	p.putBuf(b)
	b = p.newBuf()
	n := b.n
	p.putBuf(b)
	return n
}

// Pooled-to-pooled field stores are the sanctioned continuation encoding.
func chain(a, b *buf) {
	a.next = b
}

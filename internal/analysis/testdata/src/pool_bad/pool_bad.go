// Package pool_bad is the positive pooldiscipline fixture: every ownership
// violation the analyzer must flag, against a pooled type (buf, declared in
// pooledTypes).
package pool_bad

type buf struct {
	next *buf
	n    int
}

type pool struct{ free *buf }

func (p *pool) newBuf() *buf {
	if b := p.free; b != nil {
		p.free = b.next
		b.next = nil
		return b
	}
	return &buf{}
}

func (p *pool) putBuf(b *buf) {
	b.next = p.free
	p.free = b
}

func useAfterFree(p *pool) int {
	b := p.newBuf()
	p.putBuf(b)
	return b.n // want "use of \"b\" after putBuf released it to the pool"
}

func useAfterFreeInLoop(p *pool, xs []int) int {
	total := 0
	for _, x := range xs {
		b := p.newBuf()
		b.n = x
		p.putBuf(b)
		total += b.n // want "use of \"b\" after putBuf released it to the pool"
	}
	return total
}

func capture(p *pool) func() int {
	b := p.newBuf()
	return func() int { return b.n } // want "closure captures pooled \"b\""
}

type holder struct{ b *buf }

func stashField(h *holder, p *pool) {
	h.b = p.newBuf() // want "pooled pointer stored into field b of non-pooled"
}

func stashMap(m map[int]*buf, p *pool) {
	m[0] = p.newBuf() // want "pooled pointer stored into map"
}

var leaked *buf

func stashGlobal(p *pool) {
	leaked = p.newBuf() // want "pooled pointer stored into package-level variable \"leaked\""
}

func handOut(p *pool) *buf {
	return p.newBuf() // want "pooled pointer returned from handOut"
}

func allowedHandOut(p *pool) *buf {
	//parcelvet:allow pooldiscipline(fixture: documented ownership transfer to the caller)
	return p.newBuf()
}

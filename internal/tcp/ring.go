package tcp

import "math/bits"

// byteRing is a connection's send buffer: the stream from snd.una onward in a
// growable power-of-two ring. Send appends, ACKs discard from the front, and
// the transmit path peeks — it never copies out — so an established
// connection moves its window without allocating or shifting bytes. The zero
// value is an empty ring; storage is sized by the first write.
type byteRing struct {
	buf  []byte // len is zero or a power of two
	head int    // index of the first held byte
	n    int    // bytes held
}

func (r *byteRing) len() int { return r.n }

// append adds p at the tail, growing the ring when it does not fit.
func (r *byteRing) append(p []byte) {
	if len(p) == 0 {
		return
	}
	if need := r.n + len(p); need > len(r.buf) {
		nb := make([]byte, 1<<bits.Len(uint(need-1)))
		a, b := r.peek(0, r.n)
		copy(nb[copy(nb, a):], b)
		r.buf, r.head = nb, 0
	}
	tail := (r.head + r.n) & (len(r.buf) - 1)
	copy(r.buf, p[copy(r.buf[tail:], p):])
	r.n += len(p)
}

// discard drops n bytes from the front (everything, when n exceeds what is
// held).
func (r *byteRing) discard(n int) {
	if n >= r.n {
		r.head, r.n = 0, 0
		return
	}
	r.head = (r.head + n) & (len(r.buf) - 1)
	r.n -= n
}

// peek returns held bytes [off, off+n) in place, as two slices when the range
// wraps (b is nil when it does not). The caller keeps off+n within len(); the
// slices are valid until the next append.
func (r *byteRing) peek(off, n int) (a, b []byte) {
	if n == 0 {
		return nil, nil
	}
	start := (r.head + off) & (len(r.buf) - 1)
	if first := len(r.buf) - start; n > first {
		return r.buf[start:], r.buf[:n-first]
	}
	return r.buf[start : start+n], nil
}

// Send-ring recycling bounds: storage above maxPooledRing is never kept (a
// bulk connection's ring goes to the garbage collector with its TCB), and a
// manager holds at most maxPooledRings rings, so well under 512 KiB.
const (
	maxPooledRing  = 8 << 10
	maxPooledRings = 64
)

// takeRing returns pooled send-ring storage of exactly the size a first
// write of need bytes would make, so a recycled ring grows (or not) as a
// fresh one would; nil when the pool has none.
func (m *Manager) takeRing(need int) []byte {
	if need == 0 || need > maxPooledRing {
		return nil
	}
	size := 1 << bits.Len(uint(need-1))
	for i := len(m.rings) - 1; i >= 0; i-- {
		if b := m.rings[i]; len(b) == size {
			last := len(m.rings) - 1
			m.rings[i] = m.rings[last]
			m.rings[last] = nil
			m.rings = m.rings[:last]
			return b
		}
	}
	return nil
}

// keepRing pools a finished connection's send-ring storage (nil or a power
// of two long) if the bounds allow.
func (m *Manager) keepRing(buf []byte) {
	if len(buf) != 0 && len(buf) <= maxPooledRing && len(m.rings) < maxPooledRings {
		m.rings = append(m.rings, buf)
	}
}

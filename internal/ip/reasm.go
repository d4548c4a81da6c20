package ip

import (
	"slices"

	"plexus/internal/mbuf"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// reasmKey identifies a fragment set (RFC 791: src, dst, proto, id).
type reasmKey struct {
	src   view.IP4
	dst   view.IP4
	proto uint8
	id    uint16
}

// Bounds on the reassembly free list: at most reasmFreeMax buffers are kept,
// none holding more than reasmRetainMax bytes, so a layer retains at most a
// few maximum-size datagrams however many it has reassembled.
const (
	reasmFreeMax   = 4
	reasmRetainMax = 1 << 16
)

// reasmBuf accumulates one datagram's fragments. Buffers are recycled through
// the layer's free list, so data and have keep their capacity between
// datagrams: bytes past what this datagram's fragments wrote are stale, and
// only a datagram whose every unit arrived is delivered.
type reasmBuf struct {
	l        *Layer
	key      reasmKey
	data     []byte
	have     bitmap // per-8-byte-unit arrival map
	totalLen int    // payload length, known once the last fragment arrives
	timer    sim.Timer

	next  *reasmBuf // free-list link
	depth int       // free-list length from this buffer down
}

// reasmExpire is the reassembly timeout's callback, scheduled with AfterArg
// so arming the timer allocates no closure.
func reasmExpire(arg any) {
	rb := arg.(*reasmBuf)
	l := rb.l
	if cur, ok := l.reasm[rb.key]; ok && cur == rb {
		delete(l.reasm, rb.key)
		l.stats.ReasmTimeouts++
		l.freeReasmBuf(rb)
	}
}

// bitmap holds one bit per 8-byte unit of a datagram, unit u at bit u%64 of
// word u/64.
type bitmap []uint64

// setBits marks units [lo, hi), a whole word at a time where the range
// covers one.
func (m bitmap) setBits(lo, hi int) {
	for lo < hi {
		n := min(hi-lo, 64-lo%64)
		m[lo/64] |= ^uint64(0) >> (64 - n) << (lo % 64)
		lo += n
	}
}

// allBits reports whether units [0, n) are all marked.
func (m bitmap) allBits(n int) bool {
	for _, w := range m[:n/64] {
		if w != ^uint64(0) {
			return false
		}
	}
	if r := n % 64; r != 0 {
		tail := uint64(1)<<r - 1
		return m[n/64]&tail == tail
	}
	return true
}

// getReasmBuf takes a buffer from the free list, or allocates one.
func (l *Layer) getReasmBuf(key reasmKey) *reasmBuf {
	rb := l.reasmFree
	if rb == nil {
		rb = &reasmBuf{l: l}
	} else {
		l.reasmFree = rb.next
		rb.next = nil
	}
	rb.key = key
	return rb
}

// freeReasmBuf returns rb to the free list, unless the list is full or rb
// grew past the retained-capacity bound.
func (l *Layer) freeReasmBuf(rb *reasmBuf) {
	depth := 1
	if l.reasmFree != nil {
		depth = l.reasmFree.depth + 1
	}
	if depth > reasmFreeMax || cap(rb.data) > reasmRetainMax {
		return
	}
	rb.data = rb.data[:0]
	rb.have = rb.have[:0]
	rb.totalLen = 0
	rb.timer = sim.Timer{}
	rb.next = l.reasmFree
	rb.depth = depth
	l.reasmFree = rb
}

// reassemble incorporates the validated fragment m (consumed) and returns the
// complete datagram as a fresh packet — rebuilt with a synthetic header whose
// fragment fields are cleared — or nil while fragments are still missing.
//
// A fragment that would leave a hole or overrun the datagram is dropped as a
// bad header: a fragment other than the last must carry a multiple of eight
// bytes (RFC 791), no fragment may end past the 65,535-byte datagram limit
// (RFC 1858), and no fragment may contradict the end the last fragment set.
func (l *Layer) reassemble(t *sim.Task, v view.IPv4View, m *mbuf.Mbuf) *mbuf.Mbuf {
	hl := v.HdrLen()
	fragOff := v.FragOffset()
	payloadLen := v.TotalLen() - hl
	end := fragOff + payloadLen
	if v.MoreFragments() && payloadLen%8 != 0 || end > 0xffff-hl {
		l.stats.BadHeader++
		m.Free()
		return nil
	}
	key := reasmKey{src: v.Src(), dst: v.Dst(), proto: v.Proto(), id: v.ID()}
	rb, ok := l.reasm[key]
	if !ok {
		rb = l.getReasmBuf(key)
		l.reasm[key] = rb
		rb.timer = l.host.Sim.AfterArg(ReassemblyTimeout, "ip-reasm-timeout", reasmExpire, rb)
	}
	last := !v.MoreFragments()
	if rb.totalLen > 0 && (end > rb.totalLen || last && end != rb.totalLen) || last && end < len(rb.data) {
		l.stats.BadHeader++
		m.Free()
		return nil
	}
	if end > len(rb.data) {
		words, old := (end+511)/512, len(rb.have)
		rb.data = slices.Grow(rb.data, end-len(rb.data))[:end]
		rb.have = slices.Grow(rb.have, words-old)[:words]
		clear(rb.have[old:])
	}
	err := m.CopyTo(hl, rb.data[fragOff:end])
	m.Free()
	if err != nil {
		return nil
	}
	t.ChargeBytes(payloadLen, l.host.Costs.RAMPerByte)

	rb.have.setBits(fragOff/8, (end+7)/8)
	if last {
		rb.totalLen = end
	}
	if rb.totalLen == 0 || !rb.have.allBits((rb.totalLen+7)/8) {
		return nil
	}
	// Complete: cancel the timer and rebuild a whole datagram.
	rb.timer.Stop()
	delete(l.reasm, key)
	l.stats.Reassembled++
	whole := l.host.Pool.FromBytes(rb.data[:rb.totalLen], view.IPv4MinHdrLen+16)
	l.freeReasmBuf(rb)
	dm, err := whole.Prepend(view.IPv4MinHdrLen)
	if err != nil {
		whole.Free()
		return nil
	}
	b, err := dm.MutableBytes()
	if err != nil {
		dm.Free()
		return nil
	}
	b[0] = 0x45
	nv, err := view.IPv4(b[:view.IPv4MinHdrLen])
	if err != nil {
		dm.Free()
		return nil
	}
	nv.SetTotalLen(dm.PktLen())
	nv.SetID(key.id)
	nv.SetFlagsFrag(0, 0)
	nv.SetTTL(v.TTL())
	nv.SetProto(key.proto)
	nv.SetSrc(key.src)
	nv.SetDst(key.dst)
	nv.ComputeChecksum()
	dm.SetReadOnly()
	return dm
}

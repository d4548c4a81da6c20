// Package mbuf implements Berkeley memory buffers, the packet representation
// Plexus uses to pass packets through the protocol graph (paper §3.4,
// footnote 1). Packets are chains of fixed-size buffers; large payloads live
// in reference-counted clusters so copies up and down the stack are cheap.
//
// The paper relies on Modula-3's READONLY parameter mode to let multiple
// extensions view a packet without being able to modify it (Figure 4). Go has
// no compile-time equivalent, so the same discipline is enforced at runtime:
// a chain marked read-only (or one whose clusters are shared) refuses
// MutableBytes/Append/ExposeWritable, and mutators return ErrReadOnly. An
// extension that needs to modify packet contents must take an explicit copy,
// exactly as GoodPacketRecv does in the paper.
package mbuf

import (
	"errors"
	"fmt"
)

// Buffer geometry, in the spirit of 4.4BSD.
const (
	// MLEN is the data capacity of a small mbuf.
	MLEN = 224
	// MCLBYTES is the data capacity of a cluster mbuf.
	MCLBYTES = 2048
)

// Errors returned by mbuf operations.
var (
	// ErrReadOnly reports an attempted mutation of a read-only or shared
	// buffer; the caller must copy first (paper Figure 4).
	ErrReadOnly = errors.New("mbuf: buffer is read-only; copy before modifying")
	// ErrRange reports an offset/length outside the chain.
	ErrRange = errors.New("mbuf: offset or length out of range")
	// ErrNoSpace reports insufficient leading space for a Prepend that
	// could not be satisfied by allocating a new buffer.
	ErrNoSpace = errors.New("mbuf: no space")
	// ErrTooBig reports a Pullup longer than a small mbuf can hold.
	ErrTooBig = errors.New("mbuf: contiguous region too large for pullup")
)

// cluster is reference-counted external storage shared between chains.
type cluster struct {
	buf  []byte
	refs int
}

// PktHdr carries per-packet metadata on the first mbuf of a chain,
// mirroring BSD's m_pkthdr.
type PktHdr struct {
	// Len is the total data length of the chain. Maintained by all
	// mutating operations.
	Len int
	// Span is the packet-lifecycle trace ID (see sim.Metrics): stamped at
	// NIC/socket entry, carried across every header operation that moves
	// the PktHdr, and copied across the wire so one ID follows the packet
	// end to end. 0 means unstamped; the mbuf layer does not interpret it.
	Span uint64
}

// Mbuf is one buffer in a packet chain. The first mbuf of a packet carries a
// PktHdr. Mbuf values must be obtained from a Pool.
type Mbuf struct {
	next  *Mbuf
	pool  *Pool
	clust *cluster // nil ⇒ data lives in small
	small [MLEN]byte
	off   int
	len   int
	// hdr is nil for interior mbufs; for a packet head it always points at
	// hdrStore, so beginning a packet never allocates a separate header.
	hdr      *PktHdr
	hdrStore PktHdr
	ro       bool
	freed    bool
}

// Pool allocates and recycles mbufs, keeping the statistics BSD's mbstat
// exposes. A Pool has one owner, like the Sim that drives it: each host has
// its own, used only by the goroutine running that host's Sim. Pools never
// cross shards — a boundary coupling carries a byte snapshot, not an mbuf —
// so a Pool takes no lock.
type Pool struct {
	freeSmall []*Mbuf
	freeClust []*cluster
	stats     Stats
}

// Stats counts pool activity.
type Stats struct {
	AllocSmall        uint64 // small mbufs handed out
	AllocCluster      uint64 // clusters handed out
	InUse             int64  // currently live mbufs
	InUseClusters     int64  // currently live clusters (shared clusters count once)
	HighWater         int64  // maximum InUse ever observed
	HighWaterClusters int64  // maximum InUseClusters ever observed
	Recycled          uint64 // allocations satisfied from a free list (small mbufs and clusters)
}

// Gauge is the pool's live-buffer gauge: what is in flight right now and the
// worst it has ever been. The `-exp latency` rows and the telemetry pool
// probe surface it so leak regressions show up as a nonzero in-use count (or
// a high-water jump) in diffable artifacts.
type Gauge struct {
	InUse             int64 `json:"mbuf_in_use"`
	InUseClusters     int64 `json:"mbuf_clusters_in_use"`
	HighWater         int64 `json:"mbuf_high_water"`
	HighWaterClusters int64 `json:"mbuf_cluster_high_water"`
}

// Gauge returns the pool's live-buffer gauge.
func (p *Pool) Gauge() Gauge {
	return Gauge{
		InUse:             p.stats.InUse,
		InUseClusters:     p.stats.InUseClusters,
		HighWater:         p.stats.HighWater,
		HighWaterClusters: p.stats.HighWaterClusters,
	}
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Stats returns a snapshot of pool counters.
func (p *Pool) Stats() Stats {
	return p.stats
}

// get hands out a small mbuf, attaching a recycled or freshly made cluster
// when withCluster is set.
func (p *Pool) get(withCluster bool) *Mbuf {
	var m *Mbuf
	if n := len(p.freeSmall); n > 0 {
		m = p.freeSmall[n-1]
		p.freeSmall[n-1] = nil
		p.freeSmall = p.freeSmall[:n-1]
		*m = Mbuf{pool: p}
		p.stats.Recycled++
	} else {
		m = &Mbuf{pool: p}
	}
	p.stats.AllocSmall++
	p.stats.InUse++
	if p.stats.InUse > p.stats.HighWater {
		p.stats.HighWater = p.stats.InUse
	}
	if withCluster {
		p.stats.AllocCluster++
		p.stats.InUseClusters++
		if p.stats.InUseClusters > p.stats.HighWaterClusters {
			p.stats.HighWaterClusters = p.stats.InUseClusters
		}
		if n := len(p.freeClust); n > 0 {
			c := p.freeClust[n-1]
			p.freeClust[n-1] = nil
			p.freeClust = p.freeClust[:n-1]
			c.refs = 1
			m.clust = c
			p.stats.Recycled++
		} else {
			m.clust = &cluster{buf: make([]byte, MCLBYTES), refs: 1}
		}
	}
	return m
}

// Get allocates a small mbuf with no packet header.
func (p *Pool) Get() *Mbuf { return p.get(false) }

// GetPkt allocates a small mbuf that begins a packet (it carries a PktHdr).
func (p *Pool) GetPkt() *Mbuf {
	m := p.get(false)
	m.hdr = &m.hdrStore
	return m
}

// GetCluster allocates a cluster mbuf (no packet header).
func (p *Pool) GetCluster() *Mbuf {
	return p.get(true)
}

// FromBytes builds a packet chain holding a copy of data, with headroom bytes
// of leading space in the first mbuf for protocol headers to be prepended
// without further allocation. This is the normal way an application payload
// enters the stack.
func (p *Pool) FromBytes(data []byte, headroom int) *Mbuf {
	if headroom < 0 || headroom > MLEN {
		panic(fmt.Sprintf("mbuf: bad headroom %d", headroom))
	}
	head := p.GetPkt()
	head.off = headroom
	n := copy(head.small[headroom:], data)
	head.len = n
	data = data[n:]
	tail := head
	for len(data) > 0 {
		var m *Mbuf
		if len(data) > MLEN {
			m = p.GetCluster()
			n = copy(m.clust.buf, data)
		} else {
			m = p.Get()
			n = copy(m.small[:], data)
		}
		m.len = n
		data = data[n:]
		tail.next = m
		tail = m
	}
	head.hdr.Len = head.chainLen()
	return head
}

// Gather builds a packet chain holding the concatenation of parts, laid out
// exactly as FromBytes lays out the joined bytes — the same headroom, the same
// sequence of small and cluster mbufs, the same per-mbuf lengths — without the
// caller joining them first. A transport builds header + payload slices
// straight into pool mbufs this way. FromBytes keeps its own single-slice
// loop: routed through this cursor it measured 15-23 % slower per call.
func (p *Pool) Gather(headroom int, parts ...[]byte) *Mbuf {
	if headroom < 0 || headroom > MLEN {
		panic(fmt.Sprintf("mbuf: bad headroom %d", headroom))
	}
	total := 0
	for _, s := range parts {
		total += len(s)
	}
	src := gatherSrc{parts: parts}
	head := p.GetPkt()
	head.off = headroom
	head.len = src.read(head.small[headroom:])
	tail := head
	for rem := total - head.len; rem > 0; rem -= tail.len {
		var m *Mbuf
		if rem > MLEN {
			m = p.GetCluster()
			m.len = src.read(m.clust.buf)
		} else {
			m = p.Get()
			m.len = src.read(m.small[:])
		}
		tail.next = m
		tail = m
	}
	head.hdr.Len = total
	return head
}

// CopyRange builds a packet chain holding a copy of bytes [off, off+n) of
// packet m, laid out exactly as FromBytes lays out the same bytes, without
// first copying them into an intermediate slice: the range's per-mbuf slices
// feed Gather. IP fragmentation builds each fragment this way.
func (p *Pool) CopyRange(m *Mbuf, off, n, headroom int) (*Mbuf, error) {
	if m.hdr == nil {
		return nil, errors.New("mbuf: CopyRange on non-header mbuf")
	}
	if off < 0 || n < 0 || off+n > m.hdr.Len {
		return nil, ErrRange
	}
	var stack [8][]byte // a fragment-sized range spans two or three mbufs
	parts := stack[:0]
	for mm := m; mm != nil && n > 0; mm = mm.next {
		if off >= mm.len {
			off -= mm.len
			continue
		}
		b := mm.Bytes()[off:]
		if len(b) > n {
			b = b[:n]
		}
		parts = append(parts, b)
		n -= len(b)
		off = 0
	}
	return p.Gather(headroom, parts...), nil
}

// gatherSrc is a read cursor over a list of byte slices.
type gatherSrc struct {
	parts  [][]byte
	i, off int
}

// read fills dst from the cursor and reports how many bytes it copied (short
// only when the parts are exhausted).
func (g *gatherSrc) read(dst []byte) int {
	n := 0
	for n < len(dst) && g.i < len(g.parts) {
		c := copy(dst[n:], g.parts[g.i][g.off:])
		n += c
		g.off += c
		if g.off == len(g.parts[g.i]) {
			g.i++
			g.off = 0
		}
	}
	return n
}

// capacity returns the total storage length of this mbuf.
func (m *Mbuf) storage() []byte {
	if m.clust != nil {
		return m.clust.buf
	}
	return m.small[:]
}

// Next returns the following mbuf of the chain, or nil.
func (m *Mbuf) Next() *Mbuf { return m.next }

// Len returns the data length in this one mbuf.
func (m *Mbuf) Len() int { return m.len }

// PktLen returns the total packet length recorded in the packet header.
// It panics if m is not the head of a packet.
func (m *Mbuf) PktLen() int {
	if m.hdr == nil {
		panic("mbuf: PktLen on non-header mbuf")
	}
	return m.hdr.Len
}

// Hdr returns the packet header, or nil for a non-head mbuf.
func (m *Mbuf) Hdr() *PktHdr { return m.hdr }

// Freed reports whether this mbuf has been returned to the pool. A freed
// mbuf must not be used; the accessor exists for fault diagnostics (e.g.
// detecting that a dispatched frame was already consumed by its owner).
func (m *Mbuf) Freed() bool { return m.freed }

// chainLen walks the chain summing data lengths.
func (m *Mbuf) chainLen() int {
	n := 0
	for mm := m; mm != nil; mm = mm.next {
		n += mm.len
	}
	return n
}

// Bytes returns a read view of this mbuf's data. Callers must not modify the
// returned slice; writers go through MutableBytes, which enforces the
// read-only and sharing rules.
func (m *Mbuf) Bytes() []byte {
	return m.storage()[m.off : m.off+m.len]
}

// shared reports whether this mbuf's storage is visible through another chain.
func (m *Mbuf) shared() bool { return m.clust != nil && m.clust.refs > 1 }

// Writable reports whether this mbuf's data may be modified in place.
func (m *Mbuf) Writable() bool { return !m.ro && !m.shared() }

// MutableBytes returns a writable view of this mbuf's data, or ErrReadOnly if
// the buffer is read-only or shares a cluster with another chain.
func (m *Mbuf) MutableBytes() ([]byte, error) {
	if !m.Writable() {
		return nil, ErrReadOnly
	}
	return m.storage()[m.off : m.off+m.len], nil
}

// SetReadOnly marks the entire chain read-only. This is how the Plexus
// receive path hands a packet to untrusted extensions (paper §3.4).
func (m *Mbuf) SetReadOnly() {
	for mm := m; mm != nil; mm = mm.next {
		mm.ro = true
	}
}

// leadingSpace returns the unused bytes before the data in this mbuf.
func (m *Mbuf) leadingSpace() int { return m.off }

// Prepend grows the packet by n bytes at the front, returning the (possibly
// new) head. The fresh bytes are zeroed and writable via MutableBytes on the
// head. Prepending to a read-only chain fails: headers may not be pushed onto
// someone else's packet.
func (m *Mbuf) Prepend(n int) (*Mbuf, error) {
	if m.hdr == nil {
		return nil, errors.New("mbuf: Prepend on non-header mbuf")
	}
	if n < 0 {
		return nil, ErrRange
	}
	if m.ro {
		return nil, ErrReadOnly
	}
	if n <= m.leadingSpace() && !m.shared() {
		m.off -= n
		m.len += n
		clear(m.storage()[m.off : m.off+n])
		m.hdr.Len += n
		return m, nil
	}
	if n > MLEN {
		return nil, ErrNoSpace
	}
	nm := m.pool.get(false)
	nm.hdrStore = *m.hdr
	nm.hdr = &nm.hdrStore
	m.hdr = nil
	// Leave a little room for further prepends, as BSD does.
	nm.off = MLEN - n
	nm.len = n
	nm.next = m
	nm.hdr.Len += n
	return nm, nil
}

// Adj trims the packet: n > 0 removes n bytes from the front, n < 0 removes
// -n bytes from the back (BSD m_adj). Trimming more than the packet holds
// empties it. Window adjustment is metadata, not data mutation, so Adj is
// permitted on read-only chains — a layer may strip its own header view
// without copying.
func (m *Mbuf) Adj(n int) {
	if m.hdr == nil {
		panic("mbuf: Adj on non-header mbuf")
	}
	switch {
	case n > 0:
		if n > m.hdr.Len {
			n = m.hdr.Len
		}
		m.hdr.Len -= n
		for mm := m; mm != nil && n > 0; mm = mm.next {
			take := mm.len
			if take > n {
				take = n
			}
			mm.off += take
			mm.len -= take
			n -= take
		}
	case n < 0:
		n = -n
		if n > m.hdr.Len {
			n = m.hdr.Len
		}
		m.hdr.Len -= n
		// Walk from the tail removing bytes.
		remaining := m.hdr.Len
		for mm := m; mm != nil; mm = mm.next {
			if mm.len >= remaining {
				mm.len = remaining
				remaining = 0
				// Zero-length trailing mbufs stay linked; harmless.
			} else {
				remaining -= mm.len
			}
		}
	}
}

// Pullup rearranges the chain so that the first n bytes of the packet are
// contiguous in the head mbuf, returning the (possibly new) head. This is
// what a protocol layer calls before overlaying a header view. n is limited
// to MLEN. Pullup never modifies shared cluster data — it copies into fresh
// storage when rearrangement is needed — so it is legal on read-only chains;
// the result of a pullup that copied is writable only in its new head.
func (m *Mbuf) Pullup(n int) (*Mbuf, error) {
	if m.hdr == nil {
		return nil, errors.New("mbuf: Pullup on non-header mbuf")
	}
	if n < 0 || n > m.hdr.Len {
		return nil, ErrRange
	}
	if n > MLEN {
		return nil, ErrTooBig
	}
	if m.len >= n {
		return m, nil
	}
	// Gather n bytes into a fresh small mbuf, then link the remainder.
	nm := m.pool.get(false)
	nm.hdrStore = *m.hdr
	nm.hdr = &nm.hdrStore
	m.hdr = nil
	nm.ro = m.ro
	nm.off = 0
	got := 0
	mm := m
	for mm != nil && got < n {
		take := mm.len
		if take > n-got {
			take = n - got
		}
		copy(nm.small[got:], mm.Bytes()[:take])
		mm.off += take
		mm.len -= take
		got += take
		if mm.len == 0 {
			next := mm.next
			mm.hdr = nil
			mm.release()
			mm = next
		}
	}
	nm.len = got
	nm.next = mm
	// Pullup copies data into private storage; the new head is writable
	// unless the chain was read-only.
	return nm, nil
}

// CopyData copies n bytes starting at byte offset off of the packet into a
// fresh slice.
func (m *Mbuf) CopyData(off, n int) ([]byte, error) {
	if off < 0 || n < 0 {
		return nil, ErrRange
	}
	out := make([]byte, n)
	if err := m.CopyTo(off, out); err != nil {
		return nil, err
	}
	return out, nil
}

// CopyTo copies len(dst) bytes starting at byte offset off of the packet into
// dst, which the caller supplies — typically a stack array or reused buffer —
// so hot-path header reads need not allocate.
func (m *Mbuf) CopyTo(off int, dst []byte) error {
	if m.hdr == nil {
		return errors.New("mbuf: CopyTo on non-header mbuf")
	}
	n := len(dst)
	if off < 0 || off+n > m.hdr.Len {
		return ErrRange
	}
	pos := 0
	for mm := m; mm != nil && pos < n; mm = mm.next {
		if off >= mm.len {
			off -= mm.len
			continue
		}
		pos += copy(dst[pos:], mm.Bytes()[off:])
		off = 0
	}
	return nil
}

// Clone produces a new packet chain referencing the same data (clusters are
// shared by reference count; small-mbuf data is copied). Both the original
// and the clone become non-writable in shared regions until one copy is
// freed — the copy-on-write discipline of §3.4.
func (m *Mbuf) Clone() (*Mbuf, error) {
	if m.hdr == nil {
		return nil, errors.New("mbuf: Clone on non-header mbuf")
	}
	var head, tail *Mbuf
	for mm := m; mm != nil; mm = mm.next {
		var nm *Mbuf
		if mm.clust != nil {
			nm = m.pool.get(false)
			nm.clust = mm.clust
			mm.clust.refs++
			nm.off = mm.off
			nm.len = mm.len
		} else {
			nm = m.pool.get(false)
			nm.off = 0
			nm.len = mm.len
			copy(nm.small[:], mm.Bytes())
		}
		if head == nil {
			head, tail = nm, nm
		} else {
			tail.next = nm
			tail = nm
		}
	}
	head.hdrStore = *m.hdr
	head.hdr = &head.hdrStore
	return head, nil
}

// Cat appends packet n's data to packet m, consuming n. Both must be packet
// heads.
func (m *Mbuf) Cat(n *Mbuf) error {
	if m.hdr == nil || n == nil || n.hdr == nil {
		return errors.New("mbuf: Cat requires two packet heads")
	}
	m.hdr.Len += n.hdr.Len
	n.hdr = nil
	tail := m
	for tail.next != nil {
		tail = tail.next
	}
	tail.next = n
	return nil
}

// release returns one mbuf to the pool, dropping a cluster reference. A
// cluster whose last reference drops is recycled alongside the small mbuf.
func (m *Mbuf) release() {
	if m.freed {
		panic("mbuf: double free")
	}
	m.freed = true
	c := m.clust
	if c != nil {
		c.refs--
		m.clust = nil
	}
	p := m.pool
	p.stats.InUse--
	if c != nil && c.refs == 0 {
		p.stats.InUseClusters--
	}
	m.next = nil
	m.hdr = nil
	if len(p.freeSmall) < 1024 {
		p.freeSmall = append(p.freeSmall, m)
	}
	if c != nil && c.refs == 0 && len(p.freeClust) < 256 {
		p.freeClust = append(p.freeClust, c)
	}
}

// Free returns the whole chain to its pool. Using a chain after Free is a
// bug; the pool panics on double free.
func (m *Mbuf) Free() {
	for mm := m; mm != nil; {
		next := mm.next
		mm.release()
		mm = next
	}
}

// CheckInvariants verifies structural invariants of a packet chain; property
// tests call it after every operation. It returns a descriptive error on the
// first violation.
func (m *Mbuf) CheckInvariants() error {
	if m.hdr == nil {
		return errors.New("head has no packet header")
	}
	sum := 0
	for mm := m; mm != nil; mm = mm.next {
		if mm.freed {
			return errors.New("chain contains freed mbuf")
		}
		if mm.off < 0 || mm.len < 0 || mm.off+mm.len > len(mm.storage()) {
			return fmt.Errorf("window out of bounds: off=%d len=%d cap=%d", mm.off, mm.len, len(mm.storage()))
		}
		if mm != m && mm.hdr != nil {
			return errors.New("interior mbuf has packet header")
		}
		if mm.clust != nil && mm.clust.refs < 1 {
			return fmt.Errorf("cluster refs=%d", mm.clust.refs)
		}
		sum += mm.len
	}
	if sum != m.hdr.Len {
		return fmt.Errorf("PktHdr.Len=%d but chain holds %d", m.hdr.Len, sum)
	}
	return nil
}

// Boundary is the cross-shard cable: the one link type whose two ends live
// on different sim.Sim instances. Each direction is a portal — a bounded
// single-producer/single-consumer queue of timestamped wire snapshots,
// double-buffered so the producing shard appends without locks while the
// consuming shard drains the batch released at the previous barrier. The
// sim.Engine flips the buffers between rounds; its lookahead window (at most
// serialization of a minimum frame plus propagation, this boundary's
// Lookahead) guarantees every queued arrival timestamp is still in the
// consumer's future when released.
package netdev

import (
	"plexus/internal/sim"
)

// Boundary joins two shards with a full-duplex cable. Side A owns a Link on
// the first simulator, side B a Link on the second; frames transmitted on
// either side are captured by that side's portal and re-emitted onto the
// other side's link at their original arrival timestamps, one barrier round
// later. Timing is identical to a local Link: serialization and propagation
// are charged once, by the transmitting side.
type Boundary struct {
	la *Link
	lb *Link
	ab *portal // captures on A, re-emits on B
	ba *portal // captures on B, re-emits on A
}

// NewBoundary creates the cable between two shards: the first attaches its
// devices to LinkA, the second to LinkB. The model supplies wire
// timing; its minimum-frame serialization plus propagation delay is the
// coupling lookahead, so it must match the model of the NICs and switch
// ports attached to the boundary's links.
func NewBoundary(model Model) *Boundary {
	b := &Boundary{la: &Link{}, lb: &Link{}}
	lookahead := model.serialization(model.MinFrame) + model.PropDelay
	b.ab = &portal{dst: b.lb, lookahead: lookahead}
	b.ba = &portal{dst: b.la, lookahead: lookahead}
	b.ab.peer = b.ba
	b.ba.peer = b.ab
	// Each portal listens on its source link like any other attachment.
	b.la.atts = append(b.la.atts, b.ab)
	b.lb.atts = append(b.lb.atts, b.ba)
	return b
}

// LinkA returns side A's link (on the first simulator).
func (b *Boundary) LinkA() *Link { return b.la }

// LinkB returns side B's link (on the second simulator).
func (b *Boundary) LinkB() *Link { return b.lb }

// CouplingAB returns the A→B direction as an engine coupling; connect it to
// the shard owning side B (the drain side).
func (b *Boundary) CouplingAB() sim.Coupling { return b.ab }

// CouplingBA returns the B→A direction; connect it to side A's shard.
func (b *Boundary) CouplingBA() sim.Coupling { return b.ba }

// Transferred reports frames carried in each direction.
func (b *Boundary) Transferred() (ab, ba uint64) {
	return b.ab.transferred, b.ba.transferred
}

// bcellFreeCap bounds each portal's idle cell list; beyond it, retired cells
// (and their buffers) are dropped for the GC, keeping a burst from pinning
// memory forever.
const bcellFreeCap = 1024

// bcell is one captured wire snapshot in flight between shards: the frame
// bytes (copied, because the source link recycles its frame immediately),
// the arrival timestamp computed by the transmitter, and the lifecycle span.
type bcell struct {
	at   sim.Time
	span uint64
	buf  []byte
	next *bcell
}

// portal is one direction of a Boundary. Ownership of its fields follows
// the barrier protocol:
//
//	out, free      — touched only by the source shard (deliverAt), between flips
//	inbox, back    — touched only by the destination shard (Drain)
//	all fields     — touched by Flip, which runs single-threaded at barriers
//
// The engine's channel/WaitGroup edges order these phases, so no field needs
// atomics and the schedule stays deterministic.
type portal struct {
	dst       *Link
	peer      *portal
	lookahead sim.Time

	out   []*bcell // filling: captured on the source link this round
	inbox []*bcell // released: drained by dst this round
	back  []*bcell // consumed by dst, recycled at next flip
	free  *bcell
	nfree int

	transferred uint64
}

// deliverAt implements attachment on the source link: snapshot the frame
// into a pooled cell and queue it for release at the next barrier. The frame
// reference is not retained — the bytes are copied, exactly as a NIC's
// receive ring would latch them.
func (p *portal) deliverAt(at sim.Time, f *frame) {
	c := p.free
	if c != nil {
		p.free = c.next
		c.next = nil
		p.nfree--
	} else {
		c = &bcell{}
	}
	if cap(c.buf) < len(f.buf) {
		c.buf = make([]byte, len(f.buf))
	}
	c.buf = c.buf[:len(f.buf)]
	copy(c.buf, f.buf)
	c.at = at
	c.span = f.span
	p.out = append(p.out, c)
}

// Lookahead implements sim.Coupling.
func (p *portal) Lookahead() sim.Time { return p.lookahead }

// Flip implements sim.Coupling: recycle the cells the destination consumed
// last round, then release this round's captures. Runs at barriers only.
func (p *portal) Flip() {
	for _, c := range p.back {
		if p.nfree >= bcellFreeCap {
			continue // left for the GC
		}
		c.next = p.free
		p.free = c
		p.nfree++
	}
	p.back = p.back[:0]
	p.out, p.inbox = p.inbox[:0], p.out
}

// Drain implements sim.Coupling: re-emit every released snapshot onto the
// destination link at its original arrival timestamp. The engine's window
// guarantees at >= the destination clock; Sim.schedule enforces it.
func (p *portal) Drain() {
	if len(p.inbox) == 0 {
		return
	}
	for _, c := range p.inbox {
		if p.dst.down() {
			// Carrier cut on the far side: the frame crossed the boundary
			// but goes nowhere, same as a down local link.
			continue
		}
		f := p.dst.getFrame(len(c.buf))
		copy(f.buf, c.buf)
		f.span = c.span
		p.dst.frames++
		p.dst.bytes += uint64(len(c.buf))
		for _, a := range p.dst.atts {
			if a == attachment(p.peer) {
				continue // never reflect traffic back across the boundary
			}
			a.deliverAt(c.at, f)
		}
		releaseFrame(f)
		p.transferred++
	}
	p.back = append(p.back, p.inbox...)
	p.inbox = p.inbox[:0]
}

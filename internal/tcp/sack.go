// SACK machinery (RFC 2018): the sender-side scoreboard of peer-acknowledged
// sequence ranges, and the receiver-side block builder fed from the
// out-of-order buffer. The scoreboard is a small fixed array of sorted,
// disjoint ranges — bounded, allocation-free, and cheap to scan, which is
// what keeps the CC hot path at zero allocations.
package tcp

// sackBlock is one SACKed range [start, end) in sequence space.
type sackBlock struct {
	start, end uint32
}

// maxSackRanges bounds the scoreboard. Sixteen disjoint holes in flight is
// already pathological for the window sizes the simulator runs; beyond it,
// new blocks that cannot merge are dropped (conservative: a dropped block
// only delays selective retransmit, never corrupts it).
const maxSackRanges = 16

// scoreboard tracks peer-SACKed sequence ranges above snd.una, kept sorted
// and disjoint.
type scoreboard struct {
	r [maxSackRanges]sackBlock
	n int
}

func (sb *scoreboard) reset() { sb.n = 0 }

// add merges one SACK block in and reports whether it covered sequence space
// the scoreboard had not seen (the "new information" test dup-ACK counting
// uses once window updates stop qualifying segments as duplicates).
func (sb *scoreboard) add(b sackBlock) bool {
	if !seqLT(b.start, b.end) {
		return false
	}
	// Locate the run of existing ranges overlapping or touching b.
	i := 0
	for i < sb.n && seqLT(sb.r[i].end, b.start) {
		i++
	}
	j := i
	for j < sb.n && seqLE(sb.r[j].start, b.end) {
		j++
	}
	if i == j {
		// Disjoint from everything: pure insertion.
		if sb.n == len(sb.r) {
			return false
		}
		copy(sb.r[i+1:sb.n+1], sb.r[i:sb.n])
		sb.r[i] = b
		sb.n++
		return true
	}
	// Merge b with ranges [i, j). New info if b extends below the first,
	// above the last, or bridges a gap between two existing ranges.
	newInfo := seqLT(b.start, sb.r[i].start) || seqGT(b.end, sb.r[j-1].end) || j-i > 1
	if seqLT(sb.r[i].start, b.start) {
		b.start = sb.r[i].start
	}
	if seqGT(sb.r[j-1].end, b.end) {
		b.end = sb.r[j-1].end
	}
	sb.r[i] = b
	copy(sb.r[i+1:], sb.r[j:sb.n])
	sb.n -= j - i - 1
	return newInfo
}

// advance discards ranges at or below una (cumulatively acknowledged data
// needs no scoreboard entry).
func (sb *scoreboard) advance(una uint32) {
	k := 0
	for i := 0; i < sb.n; i++ {
		if seqLE(sb.r[i].end, una) {
			continue
		}
		r := sb.r[i]
		if seqLT(r.start, una) {
			r.start = una
		}
		sb.r[k] = r
		k++
	}
	sb.n = k
}

// sackedBytes totals the selectively acknowledged sequence space.
func (sb *scoreboard) sackedBytes() uint32 {
	var total uint32
	for i := 0; i < sb.n; i++ {
		total += sb.r[i].end - sb.r[i].start
	}
	return total
}

// nextHole returns the first un-SACKed gap at or after from that lies below
// SACKed data — the next candidate for selective retransmit. Sequence space
// above the highest SACKed byte is not presumed lost and is never returned.
func (sb *scoreboard) nextHole(from uint32) (start, end uint32, ok bool) {
	for i := 0; i < sb.n; i++ {
		if seqLT(from, sb.r[i].start) {
			return from, sb.r[i].start, true
		}
		if seqLT(from, sb.r[i].end) {
			from = sb.r[i].end
		}
	}
	return 0, 0, false
}

// --- receiver side ---

// buildSackBlocks derives SACK blocks from the out-of-order buffer:
// contiguous runs of buffered segments, most recently touched run first
// (RFC 2018 §4 requires the first block to contain the triggering segment).
// It fills dst and returns how many blocks were written.
func (c *Conn) buildSackBlocks(dst []sackBlock) int {
	n := 0
	first := -1
	for i := 0; i < len(c.ooo) && n < len(dst); {
		o := c.ooo[i]
		run := sackBlock{start: o.seq, end: oooEnd(o)}
		i++
		for i < len(c.ooo) && seqLE(c.ooo[i].seq, run.end) {
			if e := oooEnd(c.ooo[i]); seqGT(e, run.end) {
				run.end = e
			}
			i++
		}
		if first < 0 && seqLE(run.start, c.lastOOOSeq) && seqLT(c.lastOOOSeq, run.end) {
			first = n
		}
		dst[n] = run
		n++
	}
	if first > 0 {
		dst[0], dst[first] = dst[first], dst[0]
	}
	return n
}

// oooEnd is the sequence number one past an out-of-order segment (a buffered
// FIN occupies one sequence number).
func oooEnd(o oooSeg) uint32 {
	e := o.seq + uint32(len(o.payload))
	if o.fin {
		e++
	}
	return e
}

// ackOpts builds the option block for an outgoing ACK: SACK blocks when the
// peer negotiated them and out-of-order data is buffered, nothing otherwise.
// The bytes live in the connection's scratch buffer — valid until the next
// call, long enough for sendSegment to copy them onto the wire.
func (c *Conn) ackOpts() []byte {
	if !c.peerSackOK || len(c.ooo) == 0 {
		return nil
	}
	var blocks [maxSentSackBlocks]sackBlock
	n := c.buildSackBlocks(blocks[:])
	if n == 0 {
		return nil
	}
	return putSackOption(c.optBuf[:], blocks[:n])
}

package tcp

import (
	"plexus/internal/mbuf"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// segArrives is the connection's handler on TCP.PacketRecv: the RFC 793
// segment-arrives processing, simplified to the paths the reproduction
// exercises but honest about ordering, windows, and loss.
func (c *Conn) segArrives(t *sim.Task, pkt *mbuf.Mbuf) {
	defer pkt.Free()
	if c.dead {
		return
	}
	s, ok := parseHdr(pkt)
	if !ok {
		return
	}

	switch c.state {
	case StateSynSent:
		c.synSentInput(t, s)
		return
	case StateClosed, StateListen:
		return
	case StateTimeWait:
		c.timeWaitInput(t, s)
		return
	}

	// 1. RST validation (RFC 793 p.37, hardened against the blind-reset
	// attacks RFC 5961 describes): a RST aborts the connection only when
	// its sequence number falls inside the receive window. A stale or
	// forged RST is counted and dropped — it must not assassinate a live
	// connection.
	if s.flags&view.TCPRst != 0 {
		if c.rstAcceptable(s) {
			c.teardown(ErrReset, segCause(s))
		} else {
			c.mgr.stats.RSTsRejected++
		}
		return
	}
	// 2. Sequence acceptability (RFC 793 p.69, simplified): the segment
	// must overlap the receive window.
	if !c.seqAcceptable(s) {
		c.sendACK(t)
		return
	}
	// 3. SYN in the window: error, reset.
	if s.flags&view.TCPSyn != 0 && c.state != StateSynRcvd {
		c.Abort(t)
		return
	}
	// Duplicate SYN|ACK retransmission handling in SYN-RCVD: re-ack.
	if c.state == StateSynRcvd && s.flags&view.TCPSyn != 0 {
		c.stats.SegsSent++
		c.mgr.sendSegment(t, c.localPort, c.remoteAddr, c.remotePort, c.snd.iss, c.rcv.nxt, view.TCPSyn|view.TCPAck, c.rcv.wnd, c.synOpts(true), nil, nil)
		return
	}
	// 4. ACK processing.
	if s.flags&view.TCPAck == 0 {
		return
	}
	synRcvd := c.state == StateSynRcvd
	if synRcvd {
		if seqLE(c.snd.una, s.ack) && seqLE(s.ack, c.snd.nxt) {
			c.establish(segCause(s))
		} else {
			c.mgr.stats.RSTsSent++
			c.mgr.sendSegment(t, c.localPort, c.remoteAddr, c.remotePort, s.ack, 0, view.TCPRst, 0, nil, nil, nil)
			return
		}
	}
	c.processAck(t, s)
	if c.dead {
		return
	}
	if synRcvd {
		// Only now has snd.una passed our SYN: an application that sends
		// or closes as it hears of the connection must not have its first
		// byte, or its FIN, taken for the SYN. Data on this ACK follows.
		c.announce(t)
	}
	// 5. Payload and FIN processing.
	c.processText(t, s, pkt)
}

// synSentInput handles segments in SYN-SENT (active open). A RST here is
// honoured only when its ACK acknowledges our SYN (RFC 793 p.37) — a blind
// RST with a stale or missing ACK is counted and dropped.
func (c *Conn) synSentInput(t *sim.Task, s seg) {
	acceptableAck := false
	if s.flags&view.TCPAck != 0 {
		if seqLE(s.ack, c.snd.iss) || seqGT(s.ack, c.snd.nxt) {
			if s.flags&view.TCPRst != 0 {
				c.mgr.stats.RSTsRejected++
			} else {
				c.mgr.stats.RSTsSent++
				c.mgr.sendSegment(t, c.localPort, c.remoteAddr, c.remotePort, s.ack, 0, view.TCPRst, 0, nil, nil, nil)
			}
			return
		}
		acceptableAck = true
	}
	if s.flags&view.TCPRst != 0 {
		if acceptableAck {
			c.teardown(ErrReset, segCause(s))
		} else {
			c.mgr.stats.RSTsRejected++
		}
		return
	}
	if s.flags&view.TCPSyn == 0 {
		return
	}
	c.rcv.nxt = s.seq + 1
	// SYN windows are unscaled; wl1/wl2 seed the freshness rule.
	c.snd.wnd = s.wnd
	c.snd.wl1 = s.seq
	c.snd.wl2 = s.ack
	c.applySynOptions(s)
	if acceptableAck {
		c.snd.una = s.ack
		c.sampleRTT(s.ack)
		c.establish(segCause(s))
		c.announce(t)
		c.sendACK(t)
		c.output(t)
	} else {
		// Simultaneous open.
		c.setState(StateSynRcvd, segCause(s))
		c.sendSYNACK(t)
	}
}

// timeWaitInput handles segments in TIME-WAIT. RSTs are ignored (RFC 1337's
// TIME-WAIT assassination hazard: the state may only exit via the 2*MSL
// timer — the conformance checker enforces exactly that); a retransmitted
// FIN restarts the timer and is re-ACKed; any other old segment draws the
// standing ACK.
func (c *Conn) timeWaitInput(t *sim.Task, s seg) {
	if s.flags&view.TCPRst != 0 {
		c.mgr.stats.RSTsRejected++
		return
	}
	if s.flags&view.TCPSyn != 0 {
		return // a new incarnation must wait out the 2*MSL quiet time
	}
	if s.flags&view.TCPFin != 0 && seqLE(s.seq, c.rcv.nxt) {
		// A retransmitted FIN: our ACK of it was lost. Re-ACK and restart
		// the 2*MSL timer (RFC 793 p.73).
		c.mgr.stats.TimeWaitRearms++
		c.rearmTimeWait()
		c.sendACK(t)
		return
	}
	if !c.seqAcceptable(s) {
		c.sendACK(t)
		return
	}
	// In-window duplicate ACKs and old data draw no reply: both ends of a
	// simultaneous close sit in TIME-WAIT, and answering every segment
	// would have the two trade ACKs until the storm breaks the loop.
	c.mgr.stats.TimeWaitQuietDrops++
}

// rstAcceptable validates a RST's sequence number against the receive window
// (RFC 793 p.37): only an in-window RST may abort the connection.
func (c *Conn) rstAcceptable(s seg) bool {
	if c.rcv.wnd == 0 {
		return s.seq == c.rcv.nxt
	}
	return seqLE(c.rcv.nxt, s.seq) && seqLT(s.seq, c.rcv.nxt+c.rcv.wnd)
}

// establish transitions into ESTABLISHED.
func (c *Conn) establish(cause Cause) {
	c.setState(StateEstablished, cause)
	c.disarmRexmit()
	c.synRetries = 0
}

// announce tells the application the handshake completed. A passive open
// has no App yet: its listener's accept makes one.
func (c *Conn) announce(t *sim.Task) {
	if c.app == nil && c.listener != nil {
		c.app = c.listener.accept(t, c)
	}
	if c.app != nil {
		c.app.Established(t)
	}
}

// seqAcceptable implements the four-case acceptability test.
func (c *Conn) seqAcceptable(s seg) bool {
	slen := s.segTextLen()
	if c.rcv.wnd == 0 {
		return slen == 0 && s.seq == c.rcv.nxt
	}
	wndEnd := c.rcv.nxt + c.rcv.wnd
	if slen == 0 {
		return seqLE(c.rcv.nxt, s.seq) && seqLT(s.seq, wndEnd) || s.seq == c.rcv.nxt ||
			// Old pure ACKs (e.g. retransmitted SYN|ACK acks) are
			// tolerated: they carry useful ACK fields.
			seqLT(s.seq, c.rcv.nxt)
	}
	segEnd := s.seq + slen - 1
	return (seqLE(c.rcv.nxt, s.seq) && seqLT(s.seq, wndEnd)) ||
		(seqLE(c.rcv.nxt, segEnd) && seqLT(segEnd, wndEnd))
}

// applySynOptions folds the peer's handshake options into the TCB: MSS
// clamping, SACK permission, and window scaling — enabled only when both
// sides offered it (RFC 7323 §2.2).
func (c *Conn) applySynOptions(s seg) {
	if s.mss != 0 && uint32(s.mss) < c.mss {
		c.mss = uint32(s.mss)
	}
	c.peerSackOK = s.sackPerm && !c.noSack
	if s.wscale >= 0 {
		c.peerWScaleOK = true
		c.sndWndScale = uint8(s.wscale)
	} else {
		c.peerWScaleOK = false
		c.sndWndScale = 0
		c.rcvWndScale = 0
	}
}

// updateSndWnd applies a segment's window field under RFC 793's SND.WL1/WL2
// freshness rule: only a segment newer than the last window update (higher
// seq, or same seq with a no-older ack) may change snd.wnd. Without the
// rule, a reordered stale ACK can shrink — or worse, re-open — the send
// window the peer has since closed.
func (c *Conn) updateSndWnd(s seg) {
	if seqLT(c.snd.wl1, s.seq) || (c.snd.wl1 == s.seq && seqLE(c.snd.wl2, s.ack)) {
		c.snd.wnd = c.segWnd(s)
		c.snd.wl1 = s.seq
		c.snd.wl2 = s.ack
		return
	}
	c.stats.StaleWndUpdates++
}

// processAck advances snd.una, folds in SACK information, runs the recovery
// state machine and congestion control, and drives the close states forward.
func (c *Conn) processAck(t *sim.Task, s seg) {
	ack := s.ack
	// Compare against snd.max, not snd.nxt: after a timeout rewind the peer
	// may legitimately ack sequence space above snd.nxt (data it had buffered
	// out-of-order before the loss).
	if seqGT(ack, c.snd.max) {
		c.sendACK(t) // acks something never sent
		return
	}
	// Fold SACK blocks into the scoreboard first: both the duplicate and
	// new-data paths consult it.
	newSack := false
	if c.peerSackOK && s.nsack > 0 {
		c.stats.SacksRcvd++
		for i := uint8(0); i < s.nsack; i++ {
			b := s.sack[i]
			if seqLE(b.end, c.snd.una) || seqGT(b.end, c.snd.max) {
				continue // stale or absurd block
			}
			if seqLT(b.start, c.snd.una) {
				b.start = c.snd.una
			}
			if c.sb.add(b) {
				newSack = true
			}
		}
	}
	if seqLE(ack, c.snd.una) {
		c.staleAck(t, s, newSack)
		return
	}
	// New data acknowledged.
	acked := ack - c.snd.una
	c.sampleRTT(ack)
	c.backoff = 0 // forward progress: the path is passing traffic again
	// An ACK covering one byte past the remaining buffer can only be our
	// FIN — it was rewound by a timeout but had already reached the peer.
	if c.finQueued && !c.finSent && acked > uint32(c.sndBuf.len()) {
		c.finSent = true
	}
	// Slide the send buffer past acknowledged bytes (FIN occupies sequence
	// space beyond the buffer).
	dataAcked := acked
	if c.finSent && seqGT(ack, c.finSeq) {
		dataAcked--
	}
	c.sndBuf.discard(int(dataAcked))
	c.snd.una = ack
	if seqGT(c.snd.una, c.snd.nxt) {
		c.snd.nxt = c.snd.una // ack overtook a rewound snd.nxt
	}
	c.sb.advance(c.snd.una)
	c.updateSndWnd(s)
	if c.snd.wnd > 0 {
		c.disarmPersist()
	}
	// Recovery state machine and congestion control.
	switch c.recovery {
	case RecoveryFast:
		if seqGE(ack, c.snd.recover) {
			c.exitRecovery()
		} else {
			c.partialAck(t, acked)
		}
	case RecoveryLoss:
		if seqGE(ack, c.snd.recover) {
			c.recovery = RecoveryOpen
			c.snd.dupAcks = 0
		}
		c.cc.OnAck(c, acked) // slow-start regrowth continues during loss recovery
	default:
		c.snd.dupAcks = 0
		c.cc.OnAck(c, acked)
	}
	if c.snd.una == c.snd.nxt {
		c.disarmRexmit()
	} else {
		c.armRexmit()
	}
	// Close-state transitions on our FIN being acknowledged.
	finAcked := c.finSent && seqGT(ack, c.finSeq)
	switch c.state {
	case StateFinWait1:
		if finAcked {
			c.setState(StateFinWait2, segCause(s))
		}
	case StateClosing:
		if finAcked {
			c.enterTimeWait(segCause(s))
		}
	case StateLastAck:
		if finAcked {
			c.teardown(nil, segCause(s))
			return
		}
	}
	c.output(t)
}

// staleAck handles an acceptable segment whose ACK does not advance snd.una:
// window updates (under the WL1/WL2 rule) and duplicate-ACK counting.
func (c *Conn) staleAck(t *sim.Task, s seg, newSack bool) {
	wndBefore := c.snd.wnd
	// RFC 5681's duplicate-ACK test: no data, no window change, ack ==
	// snd.una with data outstanding. A segment carrying new SACK
	// information counts as a duplicate regardless of its window field
	// (RFC 6675): the SACK proves the receiver took a new segment.
	isDup := s.ack == c.snd.una && c.hasUnackedData() && s.payLen == 0 &&
		s.flags&(view.TCPSyn|view.TCPFin) == 0 &&
		(newSack || c.segWnd(s) == wndBefore)
	c.updateSndWnd(s)
	if wndBefore == 0 && c.snd.wnd > 0 {
		// Window update: leave persist mode and transmit.
		c.disarmPersist()
		c.output(t)
	}
	if !isDup {
		return
	}
	c.snd.dupAcks++
	c.stats.DupAcksRcvd++
	switch c.recovery {
	case RecoveryOpen:
		// RFC 6582's heuristic: don't re-enter recovery for dup ACKs of
		// sequence space below an earlier recovery point.
		if c.snd.dupAcks >= dupThresh && seqGE(c.snd.una, c.snd.recover) {
			c.enterFastRecovery(t)
		}
	case RecoveryFast:
		// Each further dup ACK means a segment left the network (RFC 6582
		// step 3): retransmit the next SACK hole.
		c.cc.OnDupAck(c)
		c.sackRexmit(t)
		c.output(t)
	case RecoveryLoss:
		c.sackRexmit(t)
	}
}

// enterFastRecovery is RFC 6582 step 2: remember the recovery point, let
// the algorithm set the window, and retransmit the lost segment.
func (c *Conn) enterFastRecovery(t *sim.Task) {
	c.stats.FastRexmits++
	c.stats.FastRecoveries++
	c.mgr.stats.FastRecoveries++
	c.recovery = RecoveryFast
	c.snd.recover = c.snd.max
	c.rexmitHint = c.snd.una
	c.cc.OnEnterRecovery(c)
	hole := uint32(0)
	if c.sb.n > 0 {
		// Bound the retransmission at the first SACKed range.
		if start, end, ok := c.sb.nextHole(c.snd.una); ok && start == c.snd.una {
			hole = end
		}
	}
	if n := c.retransmitHole(t, c.snd.una, hole); n > 0 {
		c.rexmitHint = c.snd.una + n
	}
	c.rescueSeq = c.snd.max
	c.armRexmit()
	c.output(t) // the inflated window may admit new data (RFC 6582 step 4)
}

// partialAck is RFC 6582 step 5: inside recovery, an ACK that advances
// snd.una without reaching the recovery point proves the next segment is
// also lost. Retransmit it, let the algorithm deflate the window, and stay
// in recovery.
func (c *Conn) partialAck(t *sim.Task, acked uint32) {
	c.stats.PartialAcks++
	hole := uint32(0)
	if start, end, ok := c.sb.nextHole(c.snd.una); ok && start == c.snd.una {
		hole = end
	}
	if n := c.retransmitHole(t, c.snd.una, hole); n > 0 {
		c.rexmitHint = c.snd.una + n
	}
	c.rescueSeq = c.snd.max
	c.cc.OnPartialAck(c, acked)
	c.armRexmit()
	c.output(t)
}

// exitRecovery is RFC 6582 step 5's full-ACK arm: the recovery point is
// cumulatively acked.
func (c *Conn) exitRecovery() {
	c.recovery = RecoveryOpen
	c.snd.dupAcks = 0
	c.rexmitHint = 0
	c.cc.OnExitRecovery(c)
}

func (c *Conn) hasUnackedData() bool {
	return c.snd.nxt != c.snd.una
}

// processText delivers in-order payload, buffers out-of-order segments, and
// handles the peer's FIN. pkt still holds the payload: it is copied out once,
// into the out-of-order queue or the manager's scratch buffer.
func (c *Conn) processText(t *sim.Task, s seg, pkt *mbuf.Mbuf) {
	switch c.state {
	case StateEstablished, StateFinWait1, StateFinWait2:
	default:
		return
	}
	fin := s.flags&view.TCPFin != 0
	if s.payLen == 0 && !fin {
		return
	}
	if seqGT(s.seq, c.rcv.nxt) {
		// Out of order: buffer and send an immediate duplicate ACK so
		// the sender's fast-retransmit counter advances.
		c.bufferOOO(s, pkt)
		c.sendACK(t)
		return
	}
	// Trim any already-received prefix.
	payload := c.mgr.payload(pkt, s)
	if seqLT(s.seq, c.rcv.nxt) {
		skip := c.rcv.nxt - s.seq
		if skip >= uint32(len(payload)) {
			if !fin || seqGT(s.seq+s.segTextLen(), c.rcv.nxt) {
				// Possibly a bare retransmitted FIN; fall through.
				payload = nil
			} else {
				c.sendACK(t)
				return
			}
		} else {
			payload = payload[skip:]
		}
	}
	c.deliver(t, payload)
	if fin {
		c.rcv.nxt++ // the FIN occupies one sequence number
	}
	// Drain any contiguous out-of-order segments. A FIN consumed from the
	// out-of-order buffer gets a synthesized segment cause: the original
	// segment's flags are what drove the transition, not this one's.
	finCause := segCause(s)
	drainFin, drainSeq := c.drainOOO(t)
	if drainFin && !fin {
		finCause = Cause{Kind: CauseSegment, Flags: view.TCPFin | view.TCPAck, Seq: drainSeq, Ack: s.ack}
	}
	if fin || drainFin {
		c.peerFin(t, finCause)
		return
	}
	// ACK strategy: every second full segment immediately, else delayed.
	if uint32(s.payLen) >= c.mss {
		if c.ackTimer.Pending() {
			c.sendACK(t)
		} else {
			c.scheduleDelayedACK()
		}
	} else {
		c.scheduleDelayedACK()
	}
}

// deliver hands in-order bytes to the application, or queues them (shrinking
// the advertised window) while delivery is paused.
func (c *Conn) deliver(t *sim.Task, payload []byte) {
	if len(payload) == 0 {
		return
	}
	c.rcv.nxt += uint32(len(payload))
	if c.paused {
		c.rcvBuf = append(c.rcvBuf, payload...)
		c.updateRcvWnd()
		return
	}
	if c.app != nil {
		c.app.Recv(t, payload)
	}
}

// bufferOOO stores an out-of-order segment (bounded; drops beyond the cap),
// copying its payload out of pkt into recycled storage and keeping the queue
// in sequence order.
func (c *Conn) bufferOOO(s seg, pkt *mbuf.Mbuf) {
	if len(c.ooo) >= maxOOOSegs {
		c.stats.OOODropped++
		return
	}
	at := len(c.ooo)
	for i, o := range c.ooo {
		if o.seq == s.seq {
			return // duplicate
		}
		if at == len(c.ooo) && seqLT(s.seq, o.seq) {
			at = i
		}
	}
	c.stats.OOOBuffered++
	c.lastOOOSeq = s.seq
	var p []byte
	if n := len(c.oooFree); n > 0 {
		p = c.oooFree[n-1]
		c.oooFree = c.oooFree[:n-1]
	}
	if cap(p) < s.payLen {
		p = make([]byte, s.payLen)
	}
	p = p[:s.payLen]
	if err := pkt.CopyTo(s.payOff, p); err != nil {
		panic(err) // parseHdr checked the range against the chain
	}
	c.ooo = append(c.ooo, oooSeg{})
	copy(c.ooo[at+1:], c.ooo[at:])
	c.ooo[at] = oooSeg{seq: s.seq, payload: p, fin: s.flags&view.TCPFin != 0}
}

// drainOOO delivers buffered segments that have become contiguous; it
// reports whether a buffered FIN was consumed and, if so, that FIN's
// sequence number (for the audit cause).
func (c *Conn) drainOOO(t *sim.Task) (bool, uint32) {
	fin := false
	var finSeq uint32
	for len(c.ooo) > 0 && !seqGT(c.ooo[0].seq, c.rcv.nxt) {
		// Pop before delivering (the queue must never list data the
		// application has seen), by shifting so the slice keeps its capacity.
		o := c.ooo[0]
		c.ooo = c.ooo[:copy(c.ooo, c.ooo[1:])]
		payload := o.payload
		if seqLT(o.seq, c.rcv.nxt) {
			skip := c.rcv.nxt - o.seq
			if skip >= uint32(len(payload)) {
				payload = nil
			} else {
				payload = payload[skip:]
			}
		}
		c.deliver(t, payload)
		c.oooFree = append(c.oooFree, o.payload[:0])
		if o.fin {
			c.rcv.nxt++
			fin = true
			finSeq = o.seq
		}
	}
	return fin, finSeq
}

// peerFin runs the state transitions for a received FIN and acks it.
func (c *Conn) peerFin(t *sim.Task, cause Cause) {
	if c.app != nil {
		c.app.PeerFin(t)
	}
	switch c.state {
	case StateEstablished:
		c.setState(StateCloseWait, cause)
	case StateFinWait1:
		// Our FIN not yet acked: simultaneous close.
		c.setState(StateClosing, cause)
	case StateFinWait2:
		c.sendACK(t)
		c.enterTimeWait(cause)
		return
	}
	c.sendACK(t)
}

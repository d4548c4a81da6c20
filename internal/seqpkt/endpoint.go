package seqpkt

import (
	"fmt"

	"plexus/internal/event"
	"plexus/internal/mbuf"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// RecvFunc delivers one in-order datagram to the application.
type RecvFunc func(t *sim.Task, seq uint32, data []byte, src view.IP4, srcPort uint16)

// pendingSend is an unacknowledged outgoing datagram.
type pendingSend struct {
	ep      *Endpoint
	dst     view.IP4
	dstPort uint16
	seq     uint32
	payload []byte
	tries   int
	timer   sim.Timer
	// state is written only through Endpoint.setState (audit.go).
	state XferState
}

// peerKey identifies a remote endpoint.
type peerKey struct {
	addr view.IP4
	port uint16
}

// peerState tracks the receive side for one remote endpoint.
type peerState struct {
	nextSeq uint32
	ooo     map[uint32][]byte
}

// EndpointStats counts per-endpoint activity.
type EndpointStats struct {
	Acked       uint64
	Retransmits uint64
	Abandoned   uint64
	Delivered   uint64
	OOOBuffered uint64
}

// Endpoint is a bound SPP port: the capability to send and receive.
type Endpoint struct {
	mgr     *Manager
	port    uint16
	recv    RecvFunc
	binding *event.Binding

	nextSend uint32
	pending  map[uint32]*pendingSend
	peers    map[peerKey]*peerState
	stats    EndpointStats
	closed   bool
}

// Open binds port and installs the endpoint's handler under the port's key
// through the manager — applications never touch the dispatcher directly.
func (m *Manager) Open(port uint16, recv RecvFunc) (*Endpoint, error) {
	if m.recvRef.Bound(event.Key(port)) {
		return nil, fmt.Errorf("%w: %d", ErrPortInUse, port)
	}
	e := &Endpoint{
		mgr:     m,
		port:    port,
		recv:    recv,
		pending: make(map[uint32]*pendingSend),
		peers:   make(map[peerKey]*peerState),
	}
	b, err := m.disp.InstallKey(RecvEvent, event.Key(port),
		event.Handler{Name: fmt.Sprintf("seqpkt.endpoint:%d", port), Fn: e.deliver, Ephemeral: true}, 0)
	if err != nil {
		return nil, err
	}
	e.binding = b
	return e, nil
}

// Stats returns a snapshot of counters.
func (e *Endpoint) Stats() EndpointStats { return e.stats }

// Pending reports unacknowledged sends.
func (e *Endpoint) Pending() int { return len(e.pending) }

// Close releases the port and cancels outstanding retransmissions.
func (e *Endpoint) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, p := range e.pending {
		p.timer.Stop()
		e.setState(p, XferCancelled, CauseClose)
	}
	e.mgr.disp.Uninstall(e.binding)
}

// Send transmits one reliable, ordered datagram to dst:dstPort. The source
// fields are the endpoint's identity (anti-spoofing by construction).
func (e *Endpoint) Send(t *sim.Task, dst view.IP4, dstPort uint16, payload []byte) (uint32, error) {
	if len(payload) > e.mgr.MaxPayload() {
		return 0, ErrTooBig
	}
	e.nextSend++
	seq := e.nextSend
	p := &pendingSend{
		ep:      e,
		dst:     dst,
		dstPort: dstPort,
		seq:     seq,
		payload: append([]byte(nil), payload...),
	}
	e.pending[seq] = p
	e.setState(p, XferSent, CauseSend)
	if err := e.mgr.send(t, e.port, dst, dstPort, typeData, seq, p.payload); err != nil {
		return seq, err
	}
	e.armRexmit(p)
	return seq, nil
}

// armRexmit starts p's retransmission timer. Like TCP's, it hops onto the
// CPU through package-level functions taking p, so arming allocates nothing.
func (e *Endpoint) armRexmit(p *pendingSend) {
	p.timer = e.mgr.sim.AfterArg(RexmitTimeout, "seqpkt-rexmit", rexmitFire, p)
}

func rexmitFire(a any) {
	p := a.(*pendingSend)
	p.timer = sim.Timer{}
	if e := p.ep; e.outstanding(p) {
		e.mgr.cpu.SubmitAtArg(e.mgr.sim.Now(), sim.PrioKernel, "seqpkt-rexmit", rexmitTask, p)
	}
}

func rexmitTask(t *sim.Task, a any) {
	p := a.(*pendingSend)
	e := p.ep
	if !e.outstanding(p) {
		return
	}
	p.tries++
	if p.tries >= MaxRexmits {
		delete(e.pending, p.seq)
		e.stats.Abandoned++
		e.setState(p, XferAbandoned, CauseRetryCap)
		return
	}
	e.stats.Retransmits++
	e.setState(p, XferSent, CauseRexmit)
	_ = e.mgr.send(t, e.port, p.dst, p.dstPort, typeData, p.seq, p.payload) // the re-armed timer retries a loss
	e.armRexmit(p)
}

// outstanding reports whether p still awaits its ACK on an open endpoint.
func (e *Endpoint) outstanding(p *pendingSend) bool {
	_, still := e.pending[p.seq]
	return !e.closed && still
}

// deliver handles one validated SPP packet for this endpoint.
func (e *Endpoint) deliver(t *sim.Task, pkt *mbuf.Mbuf) {
	defer pkt.Free()
	h, ok := parsePacket(pkt)
	if !ok {
		return
	}
	switch h.typ {
	case typeAck:
		if p, okp := e.pending[h.seq]; okp {
			p.timer.Stop()
			delete(e.pending, h.seq)
			e.stats.Acked++
			e.setState(p, XferAcked, CauseAck)
		}
	case typeData:
		key := peerKey{addr: h.src, port: h.srcPort}
		ps := e.peers[key]
		if ps == nil {
			ps = &peerState{nextSeq: 1, ooo: make(map[uint32][]byte)}
			e.peers[key] = ps
		}
		// Acknowledge only what is delivered, buffered, or already held: an
		// ACK tells the sender to forget the packet, so acknowledging a
		// packet the full out-of-order buffer just discarded would lose it
		// for good — the sender stops retransmitting, the sequence gap
		// never fills, and the stream deadlocks at the gap.
		ack := true
		switch {
		case h.seq < ps.nextSeq:
			e.mgr.stats.Duplicates++
		case h.seq == ps.nextSeq:
			e.handoff(t, ps.nextSeq, h.payload, h.src, h.srcPort)
			ps.nextSeq++
			e.drainOOO(t, ps, h.src, h.srcPort)
		default:
			if _, dup := ps.ooo[h.seq]; dup {
				e.mgr.stats.Duplicates++
			} else if len(ps.ooo) < maxOOO {
				ps.ooo[h.seq] = append([]byte(nil), h.payload...)
				e.stats.OOOBuffered++
			} else {
				ack = false // no room: leave it to a later retransmit
			}
		}
		if ack {
			_ = e.mgr.send(t, e.port, h.src, h.srcPort, typeAck, h.seq, nil) // the sender's retransmit covers a loss
		}
	}
}

func (e *Endpoint) handoff(t *sim.Task, seq uint32, data []byte, src view.IP4, srcPort uint16) {
	e.stats.Delivered++
	if e.recv != nil {
		e.recv(t, seq, append([]byte(nil), data...), src, srcPort)
	}
}

func (e *Endpoint) drainOOO(t *sim.Task, ps *peerState, src view.IP4, srcPort uint16) {
	for {
		data, ok := ps.ooo[ps.nextSeq]
		if !ok {
			return
		}
		delete(ps.ooo, ps.nextSeq)
		e.handoff(t, ps.nextSeq, data, src, srcPort)
		ps.nextSeq++
	}
}

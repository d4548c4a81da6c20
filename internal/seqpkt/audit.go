package seqpkt

// The SPP half of the transition-audit plane, mirroring internal/tcp/audit.go:
// every lifecycle transition of every outstanding send goes through one
// setState choke point and out a pluggable TransitionSink. SPP's machine is a
// per-datagram transfer lifecycle rather than a per-connection RFC diagram —
// Unsent→Sent on first transmission, Sent→Sent on each retry, and a terminal
// edge to Acked (peer ACK), Abandoned (retry cap), or Cancelled (endpoint
// close) — but the audit contract is the same: typed events, precomputed
// strings, one branch when no sink is installed, and a legality table in
// internal/audit that screens every edge.

import (
	"plexus/internal/sim"
	"plexus/internal/view"
)

// XferState is the lifecycle state of one outstanding SPP send.
type XferState uint8

const (
	// XferUnsent: created but not yet transmitted (transient — every send
	// transmits in the same call that creates it).
	XferUnsent XferState = iota
	// XferSent: on the wire, retransmission timer armed.
	XferSent
	// XferAcked: the peer acknowledged it; terminal.
	XferAcked
	// XferAbandoned: MaxRexmits exhausted; terminal.
	XferAbandoned
	// XferCancelled: the endpoint closed with the send outstanding; terminal.
	XferCancelled
	// NumXferStates bounds table dimensions.
	NumXferStates
)

func (s XferState) String() string {
	switch s {
	case XferUnsent:
		return "Unsent"
	case XferSent:
		return "Sent"
	case XferAcked:
		return "Acked"
	case XferAbandoned:
		return "Abandoned"
	case XferCancelled:
		return "Cancelled"
	default:
		return "Invalid"
	}
}

// Cause constants. As with TCP's, checker rules match these exact strings,
// so emission sites use the constants, never ad-hoc literals.
const (
	// CauseSend: first transmission (Unsent→Sent).
	CauseSend = "send"
	// CauseRexmit: retry timer fired and the datagram was retransmitted
	// (the Sent→Sent self-loop).
	CauseRexmit = "rexmit"
	// CauseAck: the peer's ACK arrived (Sent→Acked).
	CauseAck = "ack"
	// CauseRetryCap: MaxRexmits exhausted (Sent→Abandoned).
	CauseRetryCap = "retry-cap"
	// CauseClose: endpoint closed with the send outstanding
	// (Sent→Cancelled).
	CauseClose = "close"
)

// Transition is one typed lifecycle event: which datagram (endpoint identity
// plus sequence number), the edge taken, why, and when in simulated time.
type Transition struct {
	At       sim.Time
	Host     string
	Port     uint16
	Peer     view.IP4
	PeerPort uint16
	Seq      uint32
	Old, New XferState
	Cause    string
}

// TransitionSink receives every send-lifecycle transition under one Manager.
// Implementations must not allocate per event in steady state and must not
// call back into the endpoint synchronously.
type TransitionSink interface {
	Transition(ev Transition)
}

// SetAuditSink installs (or clears, with nil) the manager's transition sink.
func (m *Manager) SetAuditSink(s TransitionSink) { m.audit = s }

// setState performs a lifecycle transition and emits it. Every write of
// p.state after construction must go through here. Unlike TCP's setState it
// emits self-edges too: the Sent→Sent retry loop is exactly what a
// retransmission auditor watches.
func (e *Endpoint) setState(p *pendingSend, next XferState, cause string) {
	old := p.state
	p.state = next
	if s := e.mgr.audit; s != nil {
		s.Transition(Transition{
			At:       e.mgr.sim.Now(),
			Host:     e.mgr.hostName,
			Port:     e.port,
			Peer:     p.dst,
			PeerPort: p.dstPort,
			Seq:      p.seq,
			Old:      old,
			New:      next,
			Cause:    cause,
		})
	}
}

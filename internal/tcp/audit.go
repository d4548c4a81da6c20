package tcp

// This file is the Eventer half of the conformance-audit plane: every state
// transition of every connection is emitted as a typed Transition through a
// pluggable TransitionSink. The Sinker half (ring buffer, JSONL writer,
// assertion sink) and the RFC 793 legality checker live in internal/audit;
// keeping only the event type and the interface here means the transport
// never imports its own auditors.
//
// The emission path is zero-alloc by construction: Transition and Cause are
// value types, every string in them is precomputed (host name at manager
// construction, cause details as package constants), and a nil sink costs one
// branch per state write.

import (
	"plexus/internal/sim"
	"plexus/internal/view"
)

// CauseKind classifies what drove a state transition.
type CauseKind uint8

const (
	// The zero CauseKind marks a transition with no recorded cause (never
	// emitted by this implementation; checkers treat it as illegal).
	_ CauseKind = iota
	// CauseSegment is an arriving segment; Flags/Seq/Ack describe it.
	CauseSegment
	// CauseTimer is a protocol timer expiry; Detail names the timer.
	CauseTimer
	// CauseUser is an application call; Detail names the call.
	CauseUser
)

func (k CauseKind) String() string {
	switch k {
	case CauseSegment:
		return "segment"
	case CauseTimer:
		return "timer"
	case CauseUser:
		return "user"
	default:
		return "none"
	}
}

// Cause detail constants. Checker rules match on these exact strings, so
// emission sites must use the constants, never ad-hoc literals.
const (
	// User calls.
	CauseConnect = "connect" // active open
	CauseListen  = "listen"  // passive open
	CauseClose   = "close"   // orderly close
	CauseAbort   = "abort"   // RST-and-destroy
	CauseForce   = "force"   // ForceState test hook — never legal
	// Timers.
	CauseRTO  = "rto"  // retransmission/handshake timeout exhausted
	Cause2MSL = "2msl" // TIME-WAIT expiry
)

// Cause records why a transition happened: the arriving segment's flags and
// sequence numbers, the timer that fired, or the user call that was made.
type Cause struct {
	Kind   CauseKind
	Flags  uint8  // segment causes: TCP flags of the triggering segment
	Seq    uint32 // segment causes: sequence number
	Ack    uint32 // segment causes: acknowledgment number
	Detail string // timer/user causes: one of the constants above
}

// segCause builds a segment cause from a parsed segment.
func segCause(s seg) Cause {
	return Cause{Kind: CauseSegment, Flags: s.flags, Seq: s.seq, Ack: s.ack}
}

// userCause builds a user-call cause.
func userCause(detail string) Cause { return Cause{Kind: CauseUser, Detail: detail} }

// timerCause builds a timer cause.
func timerCause(detail string) Cause { return Cause{Kind: CauseTimer, Detail: detail} }

// Transition is one typed state-transition event: the connection 4-tuple, the
// edge taken, what caused it, and when (simulated time). All fields are
// values; sinks may retain events freely.
type Transition struct {
	At         sim.Time
	Host       string
	LocalAddr  view.IP4
	LocalPort  uint16
	RemoteAddr view.IP4
	RemotePort uint16
	Old, New   State
	Cause      Cause
}

// TransitionSink receives every state transition of every connection under
// one Manager. Implementations must not allocate per event in steady state
// (the ring sink and checker in internal/audit are the canonical sinks) and
// must not call back into the connection synchronously.
type TransitionSink interface {
	Transition(ev Transition)
}

// SetAuditSink installs (or clears, with nil) the manager's transition sink.
// Installing mid-run is safe; only transitions after the call are seen.
func (m *Manager) SetAuditSink(s TransitionSink) { m.audit = s }

// setState performs a state transition and emits it to the audit sink. Every
// write of c.state outside construction must go through here — the audit
// plane's completeness depends on it.
func (c *Conn) setState(next State, cause Cause) {
	old := c.state
	c.state = next
	if s := c.mgr.audit; s != nil && old != next {
		s.Transition(Transition{
			At:         c.mgr.sim.Now(),
			Host:       c.mgr.hostName,
			LocalAddr:  c.mgr.ip.Addr(),
			LocalPort:  c.localPort,
			RemoteAddr: c.remoteAddr,
			RemotePort: c.remotePort,
			Old:        old,
			New:        next,
			Cause:      cause,
		})
	}
}

// ForceState is a test hook: it rewrites the connection state directly,
// emitting a transition with the "force" user cause — which no legality rule
// accepts, so a conformance checker downstream must flag it. It exists to
// prove the audit plane catches illegal transitions with full context.
func (c *Conn) ForceState(next State) {
	c.setState(next, userCause(CauseForce))
}

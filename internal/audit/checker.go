package audit

import (
	"fmt"

	"plexus/internal/tcp"
	"plexus/internal/view"
)

// alt is one legal way to take a state edge: the cause kind that may drive
// it, plus (for segments) flags the triggering segment must and must not
// carry, or (for timers/user calls) the exact detail string.
type alt struct {
	kind      tcp.CauseKind
	needFlags uint8  // segment alts: all of these flags must be set
	banFlags  uint8  // segment alts: none of these flags may be set
	detail    string // timer/user alts: required Cause.Detail
}

func segAlt(need, ban uint8) alt { return alt{kind: tcp.CauseSegment, needFlags: need, banFlags: ban} }
func userAlt(detail string) alt  { return alt{kind: tcp.CauseUser, detail: detail} }
func timerAlt(detail string) alt { return alt{kind: tcp.CauseTimer, detail: detail} }

// legal is the RFC 793 §3.2 state diagram, indexed [old][new], each entry
// listing the legal causes for that edge. An empty entry means the edge
// itself is illegal. Subtleties encoded here:
//
//   - FinWait1→FinWait2 and Closing→TimeWait must NOT ban the FIN flag: a
//     retransmitted FIN+ACK that acks our FIN drives ACK processing first,
//     so the triggering segment can legitimately carry FIN.
//   - TimeWait→Closed is legal ONLY via the 2·MSL timer (RFC 1337: RSTs in
//     TIME-WAIT are ignored, so no segment may exit it).
//   - Closed→SynSent/Listen are user opens; RST-driven edges land in Closed
//     from every synchronized state.
var legal = func() [tcp.NumStates][tcp.NumStates][]alt {
	var t [tcp.NumStates][tcp.NumStates][]alt
	edge := func(from, to tcp.State, alts ...alt) { t[from][to] = alts }

	const (
		fin = view.TCPFin
		syn = view.TCPSyn
		rst = view.TCPRst
		ack = view.TCPAck
	)

	edge(tcp.StateClosed, tcp.StateListen, userAlt(tcp.CauseListen))
	edge(tcp.StateClosed, tcp.StateSynSent, userAlt(tcp.CauseConnect))

	edge(tcp.StateListen, tcp.StateSynRcvd, segAlt(syn, ack|rst|fin))
	edge(tcp.StateListen, tcp.StateSynSent, userAlt(tcp.CauseConnect))
	edge(tcp.StateListen, tcp.StateClosed, userAlt(tcp.CauseClose), userAlt(tcp.CauseAbort))

	edge(tcp.StateSynSent, tcp.StateEstablished, segAlt(syn|ack, rst|fin))
	edge(tcp.StateSynSent, tcp.StateSynRcvd, segAlt(syn, ack|rst)) // simultaneous open
	edge(tcp.StateSynSent, tcp.StateClosed,
		segAlt(rst|ack, 0), // RST acking our SYN
		timerAlt(tcp.CauseRTO),
		userAlt(tcp.CauseClose), userAlt(tcp.CauseAbort))

	edge(tcp.StateSynRcvd, tcp.StateEstablished, segAlt(ack, syn|rst))
	edge(tcp.StateSynRcvd, tcp.StateFinWait1, userAlt(tcp.CauseClose))
	edge(tcp.StateSynRcvd, tcp.StateClosed,
		segAlt(rst, 0), timerAlt(tcp.CauseRTO), userAlt(tcp.CauseAbort))

	edge(tcp.StateEstablished, tcp.StateFinWait1, userAlt(tcp.CauseClose))
	edge(tcp.StateEstablished, tcp.StateCloseWait, segAlt(fin, rst|syn))
	edge(tcp.StateEstablished, tcp.StateClosed, segAlt(rst, 0), userAlt(tcp.CauseAbort))

	edge(tcp.StateFinWait1, tcp.StateFinWait2, segAlt(ack, rst|syn))
	edge(tcp.StateFinWait1, tcp.StateClosing, segAlt(fin, rst|syn)) // simultaneous close
	edge(tcp.StateFinWait1, tcp.StateTimeWait, segAlt(fin|ack, rst|syn))
	edge(tcp.StateFinWait1, tcp.StateClosed, segAlt(rst, 0), userAlt(tcp.CauseAbort))

	edge(tcp.StateFinWait2, tcp.StateTimeWait, segAlt(fin, rst|syn))
	edge(tcp.StateFinWait2, tcp.StateClosed, segAlt(rst, 0), userAlt(tcp.CauseAbort))

	edge(tcp.StateCloseWait, tcp.StateLastAck, userAlt(tcp.CauseClose))
	edge(tcp.StateCloseWait, tcp.StateClosed, segAlt(rst, 0), userAlt(tcp.CauseAbort))

	edge(tcp.StateClosing, tcp.StateTimeWait, segAlt(ack, rst|syn))
	edge(tcp.StateClosing, tcp.StateClosed, segAlt(rst, 0), userAlt(tcp.CauseAbort))

	edge(tcp.StateLastAck, tcp.StateClosed,
		segAlt(ack, syn), segAlt(rst, 0), userAlt(tcp.CauseAbort))

	edge(tcp.StateTimeWait, tcp.StateClosed, timerAlt(tcp.Cause2MSL))

	return t
}()

// Legal reports whether the transition old→new driven by cause is permitted
// by the RFC 793 state diagram. When it is not, reason says why.
func Legal(old, new tcp.State, cause tcp.Cause) (ok bool, reason string) {
	if old >= tcp.NumStates || new >= tcp.NumStates {
		return false, fmt.Sprintf("unknown state in edge %v->%v", old, new)
	}
	alts := legal[old][new]
	if len(alts) == 0 {
		return false, fmt.Sprintf("no legal edge %v->%v in RFC 793 state diagram (cause %s flags=%s detail=%q)",
			old, new, cause.Kind, view.FlagString(cause.Flags), cause.Detail)
	}
	for _, a := range alts {
		if a.kind != cause.Kind {
			continue
		}
		switch a.kind {
		case tcp.CauseSegment:
			if cause.Flags&a.needFlags == a.needFlags && cause.Flags&a.banFlags == 0 {
				return true, ""
			}
		case tcp.CauseTimer, tcp.CauseUser:
			if cause.Detail == a.detail {
				return true, ""
			}
		}
	}
	return false, fmt.Sprintf("edge %v->%v not legal for cause %s (flags=%s detail=%q)",
		old, new, cause.Kind, view.FlagString(cause.Flags), cause.Detail)
}

// violation is an illegal transition retained with its full event context.
type violation[E any] struct {
	Event  E
	Reason string
}

// maxViolations bounds how many violations a checker retains with full
// context; the count keeps incrementing past it.
const maxViolations = 64

// checker is a pass-through transition sink that validates every event with
// legal. Legal events cost a table lookup and no allocation; the first
// maxViolations illegal ones are retained with full context. Attach one as
// the standing invariant in storms: the run passes only if
// ViolationCount() == 0.
type checker[E any] struct {
	legal      func(E) (ok bool, reason string)
	next       interface{ Transition(E) } // optional downstream sink
	events     uint64
	violations uint64
	retained   []violation[E]
}

func newChecker[E any](legal func(E) (bool, string), next interface{ Transition(E) }) *checker[E] {
	return &checker[E]{legal: legal, next: next, retained: make([]violation[E], 0, maxViolations)}
}

// Transition counts ev, retains it if illegal, and forwards it downstream.
func (c *checker[E]) Transition(ev E) {
	c.events++
	if ok, reason := c.legal(ev); !ok {
		c.violations++
		if len(c.retained) < cap(c.retained) {
			c.retained = append(c.retained, violation[E]{Event: ev, Reason: reason})
		}
	}
	if c.next != nil {
		c.next.Transition(ev)
	}
}

// Events returns how many transitions the checker has seen.
func (c *checker[E]) Events() uint64 { return c.events }

// ViolationCount returns how many illegal transitions were seen.
func (c *checker[E]) ViolationCount() uint64 { return c.violations }

// Violations returns the retained violations (first maxViolations).
func (c *checker[E]) Violations() []violation[E] { return c.retained }

// Checker validates TCP transitions against the RFC 793 legality table.
type Checker = checker[tcp.Transition]

// NewChecker returns a Checker forwarding to next (which may be nil).
func NewChecker(next tcp.TransitionSink) *Checker {
	return newChecker[tcp.Transition](func(ev tcp.Transition) (bool, string) {
		return Legal(ev.Old, ev.New, ev.Cause)
	}, next)
}

var _ tcp.TransitionSink = (*Checker)(nil)

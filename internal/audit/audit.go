// Package audit is the Sinker half of the TCP conformance-audit plane: the
// consumers of the typed state-transition events that internal/tcp emits
// through its TransitionSink interface (the Eventer/Sinker pipeline shape of
// kernel TCP state-change auditors).
//
// Three sinks cover the three consumption modes:
//
//   - RingSink: a preallocated overwrite-oldest ring for the flight
//     recorder — zero-alloc on the emission path, like internal/stats.
//   - JSONLSink: one deterministic JSON object per line for offline
//     analysis and cross-run diffing.
//   - AssertSink: retains everything and answers path queries, for tests
//     that assert a connection walked an exact state sequence.
//
// On top sits Checker (checker.go): an RFC 793 legality validator that
// screens every transition — including its cause — against the state
// diagram, and retains violations with full event context. Chaos soaks and
// the loss/rogue sweeps run with a Checker attached as a standing
// invariant: the fault plane's acceptance bar is zero illegal transitions,
// not merely surviving goodput.
package audit

import "plexus/internal/tcp"

// RingSink retains the most recent transitions in a preallocated ring with
// overwrite-oldest semantics — flight-recorder behaviour: the tail of the
// run is always available, and recording never allocates.
type RingSink struct {
	ring  []tcp.Transition
	next  int
	total uint64
}

// NewRingSink returns a ring retaining up to capacity transitions
// (default 4096 when capacity <= 0).
func NewRingSink(capacity int) *RingSink {
	if capacity <= 0 {
		capacity = 4096
	}
	return &RingSink{ring: make([]tcp.Transition, capacity)}
}

// Transition implements tcp.TransitionSink.
func (r *RingSink) Transition(ev tcp.Transition) {
	r.ring[r.next] = ev
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
	}
	r.total++
}

// Recorded returns how many transitions were ever recorded (including any
// the ring has since overwritten).
func (r *RingSink) Recorded() uint64 { return r.total }

// Events returns the retained transitions in recording order (oldest
// first). It allocates; call at dump time, not on the hot path.
func (r *RingSink) Events() []tcp.Transition {
	if r.total <= uint64(len(r.ring)) {
		out := make([]tcp.Transition, r.total)
		copy(out, r.ring[:r.total])
		return out
	}
	out := make([]tcp.Transition, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// Tee fans each transition out to every sink in order. Use it to run the
// flight-recorder ring and a checker side by side off one manager.
type Tee []tcp.TransitionSink

// Transition implements tcp.TransitionSink.
func (t Tee) Transition(ev tcp.Transition) {
	for _, s := range t {
		s.Transition(ev)
	}
}

var (
	_ tcp.TransitionSink = (*RingSink)(nil)
	_ tcp.TransitionSink = Tee(nil)
)

// Package audit is the Sinker half of the TCP conformance-audit plane: the
// consumers of the typed state-transition events that internal/tcp emits
// through its TransitionSink interface (the Eventer/Sinker pipeline shape of
// kernel TCP state-change auditors).
//
// Two sinks cover the two consumption modes:
//
//   - JSONLSink: one deterministic JSON object per line for offline
//     analysis and cross-run diffing.
//   - AssertSink: retains everything and answers path queries, for tests
//     and tools that need every transition of a run.
//
// On top sits Checker (checker.go): an RFC 793 legality validator that
// screens every transition — including its cause — against the state
// diagram, and retains violations with full event context. Chaos soaks and
// the loss/rogue sweeps run with a Checker attached as a standing
// invariant: the fault plane's acceptance bar is zero illegal transitions,
// not merely surviving goodput. SPPChecker (spp.go) is the same checker
// over seqpkt's transfer lifecycle.
package audit

import "plexus/internal/tcp"

// Tee fans each transition out to every sink in order. Use it to run
// several sinks behind one checker.
type Tee []tcp.TransitionSink

// Transition implements tcp.TransitionSink.
func (t Tee) Transition(ev tcp.Transition) {
	for _, s := range t {
		s.Transition(ev)
	}
}

var _ tcp.TransitionSink = Tee(nil)

package audit

// The SPP legality table and checker: the seqpkt counterpart of checker.go.
// SPP's machine is a per-datagram transfer lifecycle, so the table is small —
// Unsent→Sent on first transmission, a Sent→Sent retry self-loop, and one
// terminal edge each for acknowledgment, retry exhaustion, and endpoint
// close — but the discipline is identical: every emitted transition must
// match an (edge, cause) pair or the run is in violation.

import (
	"fmt"

	"plexus/internal/seqpkt"
)

// sppLegal is the transfer-lifecycle diagram, indexed [old][new], each entry
// listing the cause strings that may drive that edge.
var sppLegal = func() [seqpkt.NumXferStates][seqpkt.NumXferStates][]string {
	var t [seqpkt.NumXferStates][seqpkt.NumXferStates][]string
	t[seqpkt.XferUnsent][seqpkt.XferSent] = []string{seqpkt.CauseSend}
	t[seqpkt.XferSent][seqpkt.XferSent] = []string{seqpkt.CauseRexmit}
	t[seqpkt.XferSent][seqpkt.XferAcked] = []string{seqpkt.CauseAck}
	t[seqpkt.XferSent][seqpkt.XferAbandoned] = []string{seqpkt.CauseRetryCap}
	t[seqpkt.XferSent][seqpkt.XferCancelled] = []string{seqpkt.CauseClose}
	return t
}()

// SPPLegal reports whether the transfer-lifecycle edge old→new driven by
// cause is permitted; when not, reason says why.
func SPPLegal(old, new seqpkt.XferState, cause string) (ok bool, reason string) {
	if old >= seqpkt.NumXferStates || new >= seqpkt.NumXferStates {
		return false, fmt.Sprintf("unknown state in edge %v->%v", old, new)
	}
	causes := sppLegal[old][new]
	if len(causes) == 0 {
		return false, fmt.Sprintf("no legal edge %v->%v in SPP transfer lifecycle (cause %q)", old, new, cause)
	}
	for _, c := range causes {
		if cause == c {
			return true, ""
		}
	}
	return false, fmt.Sprintf("edge %v->%v not legal for cause %q", old, new, cause)
}

// SPPChecker validates SPP transitions against the transfer-lifecycle
// table, the same standing-invariant role Checker plays for TCP.
type SPPChecker = checker[seqpkt.Transition]

// NewSPPChecker returns an SPPChecker forwarding to next (which may be nil).
func NewSPPChecker(next seqpkt.TransitionSink) *SPPChecker {
	return newChecker[seqpkt.Transition](func(ev seqpkt.Transition) (bool, string) {
		return SPPLegal(ev.Old, ev.New, ev.Cause)
	}, next)
}

var _ seqpkt.TransitionSink = (*SPPChecker)(nil)

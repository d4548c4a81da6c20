package bench

import (
	"fmt"

	"plexus/internal/audit"
	"plexus/internal/plexus"
)

// auditSet is the RFC 793 conformance checkers riding along on a rig's
// hosts, one per host. Every robustness cell runs with one attached: the
// sweep's acceptance bar is zero illegal transitions, not merely surviving
// goodput, so a cell whose storm pushes a TCB across a forbidden edge fails
// the whole experiment rather than quietly producing a row.
type auditSet []*audit.Checker

// attachAudit installs a conformance checker on every host.
func attachAudit(hosts ...*plexus.Stack) auditSet {
	set := make(auditSet, len(hosts))
	for i, h := range hosts {
		set[i] = audit.NewChecker(nil)
		h.TCP.SetAuditSink(set[i])
	}
	return set
}

// transitions returns the total state transitions observed on all hosts.
func (set auditSet) transitions() uint64 {
	var n uint64
	for _, c := range set {
		n += c.Events()
	}
	return n
}

// violations returns the total illegal transitions observed on all hosts.
func (set auditSet) violations() uint64 {
	var n uint64
	for _, c := range set {
		n += c.ViolationCount()
	}
	return n
}

// check returns an error naming the first retained violation, or nil.
func (set auditSet) check() error {
	for i, c := range set {
		if vs := c.Violations(); len(vs) > 0 {
			v := vs[0]
			return fmt.Errorf("bench: %d illegal TCP transitions (first on host %d at %v, %v->%v: %s)",
				set.violations(), i, v.Event.At, v.Event.Old, v.Event.New, v.Reason)
		}
	}
	return nil
}

package fabric

import (
	"plexus/internal/filter"
	"plexus/internal/sim"
)

// ECMP: equal-cost multipath selection by 5-tuple flow hashing. The rule
// stamps a path index on the packet; the gateway folds it into egress
// selection among parallel candidate links. Hashing the full tuple keeps
// each flow on one path — no reordering — while spreading flows across all
// of them.

// ECMP is the path-selection state, exposing per-path counters.
type ECMP struct {
	paths int
	hits  []uint64
}

// NewECMP creates the service and its rule: packets matching the filter
// source (empty = all) have Path set to hash(5-tuple) mod paths.
func NewECMP(name, match string, base filter.Base, paths int) (*ECMP, *Rule, error) {
	if paths < 1 {
		paths = 1
	}
	e := &ECMP{paths: paths, hits: make([]uint64, paths)}
	r, err := NewRule(name, match, base, ActionFunc{Label: name, Fn: e.selectPath})
	if err != nil {
		return nil, nil, err
	}
	return e, r, nil
}

// Hits returns packets steered to each path.
func (e *ECMP) Hits() []uint64 { return e.hits }

func (e *ECMP) selectPath(t *sim.Task, p *Packet) Verdict {
	ft, ok := ExtractTuple(p.Buf, p.Base)
	if !ok {
		return NextTable
	}
	p.Path = int(ft.Hash() % uint32(e.paths))
	e.hits[p.Path]++
	return NextTable
}

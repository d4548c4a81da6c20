// Package fabric is the programmable forwarding plane: match-action
// pipelines installed on the gateway's forwarding hook. It generalizes
// internal/filter's packet filters (the paper's §3.5 guards) into the match
// half of a P4-style match-action table: a Pipeline is an ordered list of
// Tables, each an ordered list of Rules pairing a filter-compiled match with
// a typed Action; the first matching rule in a table fires its action, whose
// verdict steers evaluation onward.
//
// Fabric programs are extensions in the paper's sense and are sandboxed the
// same way endpoint extensions are (PR 3): an action that panics is
// recovered and counted against its rule, and repeat offenders are
// quarantined by the same event.QuarantinePolicy — a fully quarantined
// pipeline degenerates to plain forwarding. Execution cost is deterministic
// simulated time, charged to the gateway's task through ChargeProf under
// ProfFabric so fabric work shows up in the flight recorder.
package fabric

import (
	"fmt"

	"plexus/internal/event"
	"plexus/internal/filter"
	"plexus/internal/sim"
)

// Verdict is an action's decision about the packet.
type Verdict uint8

const (
	// Continue keeps scanning the current table's remaining rules.
	Continue Verdict = iota
	// NextTable ends the current table and proceeds to the next one — the
	// "permit" of an ACL: matched, allowed, but later services still run.
	NextTable
	// Accept ends the whole pipeline; the packet is forwarded as-is.
	Accept
	// Drop ends the whole pipeline; the packet is discarded.
	Drop
)

func (v Verdict) String() string {
	switch v {
	case Continue:
		return "continue"
	case NextTable:
		return "next-table"
	case Accept:
		return "accept"
	case Drop:
		return "drop"
	}
	return "unknown"
}

// Default per-evaluation costs — TCAM-less software matching on the modelled
// forwarding CPU.
const (
	DefaultMatchCost  = 120 * sim.Nanosecond
	DefaultActionCost = 300 * sim.Nanosecond
)

// Packet is the mutable view of one packet traversing a pipeline. Buf holds
// the full packet in the pipeline's base framing. A packet whose bytes are
// shared has Writable false, and rewrite actions must not touch it — Mutable
// panics, which the sandbox converts into a rule fault.
type Packet struct {
	Buf      []byte
	Base     filter.Base
	Writable bool
	// Path is the ECMP path index selected for this packet (default 0); the
	// gateway folds it into egress selection among parallel candidate links.
	Path int
	// OutPort is read by nothing; it stays for the callers that still set it.
	OutPort int
}

// Mutable returns the packet bytes for in-place rewriting, panicking when
// the packet is read-only. The panic is deliberate: it surfaces a
// misdeployed rewrite action as a sandbox fault instead of corrupting bytes
// someone else still holds.
func (p *Packet) Mutable() []byte {
	if !p.Writable {
		panic("fabric: rewrite of read-only packet")
	}
	return p.Buf
}

// Action is the typed half of a match-action rule.
type Action interface {
	// Name labels the action in stats and traces.
	Name() string
	// Apply processes the packet on the gateway's task t and returns the
	// verdict steering pipeline evaluation.
	Apply(t *sim.Task, p *Packet) Verdict
}

// ActionFunc adapts a function to Action.
type ActionFunc struct {
	Label string
	Fn    func(t *sim.Task, p *Packet) Verdict
}

// Name implements Action.
func (a ActionFunc) Name() string { return a.Label }

// Apply implements Action.
func (a ActionFunc) Apply(t *sim.Task, p *Packet) Verdict { return a.Fn(t, p) }

// VerdictAction is a constant-verdict action (permit, deny, accept).
type VerdictAction struct {
	Label string
	V     Verdict
}

// Name implements Action.
func (a VerdictAction) Name() string { return a.Label }

// Apply implements Action.
func (a VerdictAction) Apply(*sim.Task, *Packet) Verdict { return a.V }

// Rule pairs a compiled match with an action. A nil match matches every
// packet (the table's default entry).
type Rule struct {
	name   string
	match  *filter.Filter
	action Action

	hits        uint64
	faults      uint64
	quarantined bool
}

// RuleStats is a snapshot of one rule's counters.
type RuleStats struct {
	Table       string
	Name        string
	Hits        uint64
	Faults      uint64
	Quarantined bool
}

// NewRule builds a rule from filter source (empty = match-all) and an action.
func NewRule(name, match string, base filter.Base, action Action) (*Rule, error) {
	r := &Rule{name: name, action: action}
	if match != "" {
		f, err := filter.Parse(match, base)
		if err != nil {
			return nil, fmt.Errorf("fabric: rule %s: %w", name, err)
		}
		r.match = f
	}
	return r, nil
}

// Table is an ordered rule list; the first matching live rule fires.
type Table struct {
	name  string
	rules []*Rule
}

// NewTable creates an empty named table.
func NewTable(name string) *Table { return &Table{name: name} }

// Add appends a rule.
func (tb *Table) Add(r *Rule) *Table {
	tb.rules = append(tb.rules, r)
	return tb
}

// PipelineStats counts pipeline-level activity.
type PipelineStats struct {
	Packets     uint64 // packets run through the pipeline
	Drops       uint64 // packets dropped by a rule verdict
	Faults      uint64 // recovered action panics across all rules
	Quarantined uint64 // rules ejected by the policy
}

// Pipeline is an ordered list of tables bound to an owner name (the
// ChargeProf attribution label).
type Pipeline struct {
	owner  string
	tables []*Table
	policy event.QuarantinePolicy
	stats  PipelineStats
	live   int // rules not yet quarantined

	// MatchCost is charged per rule evaluated; ActionCost per action fired.
	MatchCost  sim.Time
	ActionCost sim.Time
}

// NewPipeline creates an empty pipeline. base names the framing packets
// arrive in (BaseIP on the gateway hook); each rule compiles its match for
// its own base, so the pipeline does not keep it. policy configures rule
// quarantine (zero value = count faults but never eject).
func NewPipeline(name string, base filter.Base, policy event.QuarantinePolicy) *Pipeline {
	return &Pipeline{
		owner:      "fabric:" + name,
		policy:     policy,
		MatchCost:  DefaultMatchCost,
		ActionCost: DefaultActionCost,
	}
}

// Add appends a table.
func (pl *Pipeline) Add(tb *Table) *Pipeline {
	pl.tables = append(pl.tables, tb)
	pl.live += len(tb.rules)
	return pl
}

// Stats returns a snapshot of pipeline counters.
func (pl *Pipeline) Stats() PipelineStats { return pl.stats }

// Quarantined reports whether every rule has been ejected — the pipeline is
// inert and traffic sees plain forwarding.
func (pl *Pipeline) Quarantined() bool { return pl.live == 0 && pl.stats.Quarantined > 0 }

// Snapshot returns per-rule counters across all tables (allocates; not for
// the per-packet path).
func (pl *Pipeline) Snapshot() []RuleStats {
	var out []RuleStats
	for _, tb := range pl.tables {
		for _, r := range tb.rules {
			out = append(out, RuleStats{
				Table:       tb.name,
				Name:        r.name,
				Hits:        r.hits,
				Faults:      r.faults,
				Quarantined: r.quarantined,
			})
		}
	}
	return out
}

// Exec runs the pipeline over p and returns the final verdict (Accept when
// no rule decided otherwise). The execution cost is charged to t through
// ChargeProf under ProfFabric.
func (pl *Pipeline) Exec(t *sim.Task, p *Packet) Verdict {
	pl.stats.Packets++
	cost := sim.Time(0)
	verdict := Accept
scan:
	for _, tb := range pl.tables {
		for _, r := range tb.rules {
			if r.quarantined {
				continue
			}
			cost += pl.MatchCost
			if r.match != nil && !r.match.MatchBytes(p.Buf) {
				continue
			}
			r.hits++
			cost += pl.ActionCost
			v, ok := pl.invoke(t, r, p)
			if !ok {
				continue // faulted action: skip, as a crashed handler would be
			}
			switch v {
			case Continue:
			case NextTable:
				continue scan
			case Accept:
				verdict = Accept
				break scan
			case Drop:
				verdict = Drop
				break scan
			}
		}
	}
	if verdict == Drop {
		pl.stats.Drops++
	}
	t.ChargeProf(sim.ProfFabric, pl.owner, cost)
	return verdict
}

// invoke runs one action under the sandbox: a panic is recovered, counted
// against the rule, and — past the policy threshold — quarantines it,
// exactly as the dispatcher contains a crashing handler.
func (pl *Pipeline) invoke(t *sim.Task, r *Rule, p *Packet) (v Verdict, ok bool) {
	defer func() {
		if e := recover(); e != nil {
			ok = false
			r.faults++
			pl.stats.Faults++
			if !r.quarantined && pl.policy.Threshold > 0 && r.faults >= pl.policy.Threshold {
				r.quarantined = true
				pl.stats.Quarantined++
				pl.live--
			}
		}
	}()
	return r.action.Apply(t, p), true
}

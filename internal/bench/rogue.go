package bench

import (
	"fmt"

	"plexus/internal/event"
	"plexus/internal/netdev"
	"plexus/internal/plexus"
	"plexus/internal/sim"
)

// This file implements the `-exp rogue` sandbox experiment: how much a
// well-behaved flow pays while misbehaving extensions are installed beside
// it, and how quickly the quarantine ejects them. Each cell installs N
// rogues (cycling through the archetypes of internal/plexus/rogue.go) on
// the receiver, runs a legitimate workload to completion, and reports both
// the flow's headline metric and the dispatcher's fault accounting. The
// DIGITAL UNIX personality runs the same rogues through its softirq path —
// the paper's safety argument (§2, §3.3) is about the extension
// architecture, not a particular dispatch mode, so both must survive.

// Quarantine policy used by every rogue cell.
const (
	rogueThreshold   = 5
	rogueGuardBudget = 5 * sim.Microsecond
)

// RogueRow is one cell of the sandbox sweep: a rogue count, a system, a
// workload, the flow's outcome, and the dispatcher's health counters after
// the run.
type RogueRow struct {
	Rogues   int    `json:"rogues"`
	System   System `json:"system"`
	Workload string `json:"workload"`

	// GoodputMbps is the receiver-observed rate (tcp-bulk only).
	GoodputMbps float64 `json:"goodput_mbps,omitempty"`
	// DeliveredPct is the fraction of the offered workload that completed.
	DeliveredPct float64 `json:"delivered_pct"`

	// Dispatcher fault accounting on the receiver after the run.
	Quarantined   int    `json:"quarantined"`
	Panics        uint64 `json:"panics"`
	GuardPanics   uint64 `json:"guard_panics"`
	Terminations  uint64 `json:"terminations"`
	GuardOverruns uint64 `json:"guard_overruns"`

	// AuditTransitions counts TCP state transitions observed by the RFC 793
	// conformance checkers on both hosts; AuditViolations must be zero for
	// the cell to produce a row at all (a violation fails the sweep).
	AuditTransitions uint64 `json:"audit_transitions"`
	AuditViolations  uint64 `json:"audit_violations"`
}

// rogueQuarantine is the ejection policy every rogue cell runs under.
func rogueQuarantine() event.QuarantinePolicy {
	return event.QuarantinePolicy{Threshold: rogueThreshold, GuardBudget: rogueGuardBudget}
}

// rogueCell runs workload wl on a two-host Ethernet with rogues misbehaving
// extensions installed on the server, cycling through the archetypes in
// canonical order, and reports the flow's outcome — under 100% delivered
// means the sandbox failed to protect the flow within the horizon — plus
// the server dispatcher's fault counters.
func rogueCell(sys System, rogues int, wl string) (RogueRow, error) {
	ca, sa := hostSpec("client", sys), hostSpec("server", sys)
	ca.Quarantine, sa.Quarantine = rogueQuarantine(), rogueQuarantine()
	n, client, server, err := plexus.TwoHosts(1, netdev.EthernetModel(), ca, sa)
	if err != nil {
		return RogueRow{}, err
	}
	kinds := plexus.RogueKinds()
	for i := 0; i < rogues; i++ {
		if _, err := server.InstallExtension(plexus.RogueExtension(kinds[i%len(kinds)], i)); err != nil {
			return RogueRow{}, fmt.Errorf("install rogue %d: %w", i, err)
		}
	}
	aud := attachAudit(client, server)
	defer recordEvents(n.Sim)
	f, err := runFlow(n, client, server, wl)
	if err != nil {
		return RogueRow{}, err
	}
	if err := aud.check(); err != nil {
		return RogueRow{}, err
	}
	h := server.Host.Disp.Health()
	return RogueRow{
		Rogues:           rogues,
		System:           sys,
		Workload:         wl,
		GoodputMbps:      f.mbps,
		DeliveredPct:     f.pct,
		Quarantined:      h.Quarantined,
		Panics:           h.Panics,
		GuardPanics:      h.GuardPanics,
		Terminations:     h.Terminations,
		GuardOverruns:    h.GuardOverruns,
		AuditTransitions: aud.transitions(),
		AuditViolations:  aud.violations(),
	}, nil
}

// Rogue runs the sandbox sweep: every rogue count × system × workload as an
// independent cell (its own sim and hosts), fanned out over RunCells —
// rows are byte-identical at any parallelism.
func Rogue(counts []int) ([]RogueRow, error) {
	type cell struct {
		rogues int
		sys    System
		wl     string
	}
	var cells []cell
	for _, rogues := range counts {
		for _, sys := range []System{SysPlexusInterrupt, SysDUX} {
			for _, wl := range []string{WorkloadTCPBulk, WorkloadSPPStream} {
				cells = append(cells, cell{rogues, sys, wl})
			}
		}
	}
	return RunCells(cells, func(c cell) (RogueRow, error) {
		row, err := rogueCell(c.sys, c.rogues, c.wl)
		if err != nil {
			return RogueRow{}, fmt.Errorf("rogue %d/%s/%s: %w", c.rogues, c.sys, c.wl, err)
		}
		return row, nil
	})
}

package bench

import (
	"reflect"
	"testing"

	"plexus/internal/sim"
)

// ccFastCell is the cheapest cell in the sweep: 100 Mb/s (4s measurement
// window), short propagation, no injected loss.
func ccFastCell(algoA, algoB string, loss float64) ccCell {
	return ccCell{algoA: algoA, algoB: algoB, bwMbps: 100,
		prop: 50 * sim.Microsecond, loss: loss}
}

// One clean cell produces a coherent row: both flows move traffic, the
// bottleneck queue is observed, and the conformance auditors see a healthy
// number of transitions with zero violations. The 10 Mb/s cell is the one
// whose bottleneck queue visibly builds at the 1ms sampling grain.
func TestCCCellSmoke(t *testing.T) {
	c := ccCell{algoA: "newreno", algoB: "newreno", bwMbps: 10,
		prop: 50 * sim.Microsecond, loss: 0, seed: 1}
	row, stats, err := runCCInner(c, ccOfferedBytes(c.bwMbps))
	if err != nil {
		t.Fatal(err)
	}
	if row.GoodputA <= 0 || row.GoodputB <= 0 {
		t.Fatalf("starved flow: goodput A %.3f B %.3f", row.GoodputA, row.GoodputB)
	}
	if sum := row.GoodputA + row.GoodputB; sum > float64(c.bwMbps) {
		t.Errorf("aggregate goodput %.2f exceeds the %d Mb/s wire", sum, c.bwMbps)
	}
	if row.QueuePeak == 0 || row.QueueMean <= 0 {
		t.Error("bottleneck queue never observed; the flows are not competing")
	}
	if row.AuditTransitions == 0 {
		t.Error("auditors saw no TCP transitions")
	}
	if row.AuditViolations != 0 {
		t.Errorf("%d audit violations in a clean cell", row.AuditViolations)
	}
	for i, cs := range stats {
		if cs.SegsSent == 0 {
			t.Errorf("flow %d sent nothing", i)
		}
	}
}

// The acceptance gate as a unit test: two NewReno flows with no injected
// loss must share the bottleneck at Jain ≥ 0.95 (seed-averaged, like the
// committed baseline).
func TestCCFairnessGate(t *testing.T) {
	row, err := runCCCell(ccFastCell("newreno", "newreno", 0))
	if err != nil {
		t.Fatal(err)
	}
	if row.Jain < 0.95 {
		t.Fatalf("Jain = %.4f for newreno/newreno at 0%% loss, want >= 0.95 (goodputs %.3f / %.3f)",
			row.Jain, row.GoodputA, row.GoodputB)
	}
}

// Under injected loss the recovery machinery must actually engage: both
// senders retransmit, SACK blocks flow, and the scoreboard drives selective
// retransmissions — all without a single audit violation.
func TestCCLossCellRecoveryCounters(t *testing.T) {
	c := ccFastCell("newreno", "newreno", 0.02)
	c.seed = 1
	row, stats, err := runCCInner(c, ccOfferedBytes(c.bwMbps))
	if err != nil {
		t.Fatal(err)
	}
	if row.FaultLost == 0 {
		t.Fatal("injector dropped nothing at 2% loss")
	}
	if row.AuditViolations != 0 {
		t.Errorf("%d audit violations under loss", row.AuditViolations)
	}
	for i, cs := range stats {
		if cs.Retransmits == 0 {
			t.Errorf("flow %d never retransmitted under 2%% loss", i)
		}
		if cs.SacksRcvd == 0 {
			t.Errorf("flow %d received no SACK blocks", i)
		}
	}
	if stats[0].SackRexmits+stats[1].SackRexmits == 0 {
		t.Error("no scoreboard-driven retransmissions in a lossy cell")
	}
}

// A cell is a pure function of its parameters: running it twice yields
// byte-identical rows and counter snapshots. This is the per-cell half of
// the determinism property; the cross-parallelism half is RunCells' (tested
// in runner_test.go) plus the CI diff of `-exp cc` at -parallel 1 vs 8.
func TestCCCellDeterministic(t *testing.T) {
	c := ccFastCell("newreno", "cubic", 0.02)
	c.seed = 3
	r1, s1, err := runCCInner(c, ccOfferedBytes(c.bwMbps))
	if err != nil {
		t.Fatal(err)
	}
	r2, s2, err := runCCInner(c, ccOfferedBytes(c.bwMbps))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(s1, s2) {
		t.Fatalf("identical cell diverged:\nrow1 %+v\nrow2 %+v\nstats1 %+v\nstats2 %+v", r1, r2, s1, s2)
	}
}

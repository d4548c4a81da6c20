package bench

import (
	"reflect"
	"testing"
)

// Two identical rogue cells executed concurrently must produce identical
// rows: every fault counter a cell reads is local to its own sim, pool, and
// dispatcher. Run under -race (the CI rogue-smoke job does) this also pins
// the absence of cross-cell sharing in the sandbox accounting itself.
func TestRogueCellsAreCellLocal(t *testing.T) {
	type out struct {
		row RogueRow
		err error
	}
	results := make([]out, 2)
	done := make(chan int, 2)
	for i := range results {
		go func(i int) {
			row, err := rogueCell(SysPlexusInterrupt, 4, WorkloadTCPBulk)
			results[i] = out{row, err}
			done <- i
		}(i)
	}
	<-done
	<-done
	for _, r := range results {
		if r.err != nil {
			t.Fatal(r.err)
		}
	}
	if !reflect.DeepEqual(results[0].row, results[1].row) {
		t.Fatalf("concurrent identical cells diverged:\n%+v\n%+v", results[0].row, results[1].row)
	}
}

func TestRogueShapes(t *testing.T) {
	rows, err := Rogue([]int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 { // 2 counts × 2 systems × 2 workloads
		t.Fatalf("got %d rows, want 8", len(rows))
	}
	for _, r := range rows {
		// The sandbox's headline claim: the well-behaved flow completes
		// whether or not rogues are installed, on both personalities.
		if r.DeliveredPct != 100 {
			t.Errorf("%d rogues/%s/%s: delivered %.1f%%, want 100%%",
				r.Rogues, r.System, r.Workload, r.DeliveredPct)
		}
		if r.Rogues == 0 {
			if r.Quarantined != 0 || r.Panics+r.GuardPanics+r.Terminations+r.GuardOverruns != 0 {
				t.Errorf("0 rogues/%s/%s: nonzero fault counters: %+v", r.System, r.Workload, r)
			}
			continue
		}
		if r.Quarantined != r.Rogues {
			t.Errorf("%d rogues/%s/%s: quarantined %d, want all",
				r.Rogues, r.System, r.Workload, r.Quarantined)
		}
		// With all four archetypes installed, every fault class fires.
		if r.Panics == 0 || r.GuardOverruns == 0 || r.Terminations == 0 {
			t.Errorf("%d rogues/%s/%s: expected every fault class, got %+v",
				r.Rogues, r.System, r.Workload, r)
		}
	}
}

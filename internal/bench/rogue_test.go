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

// TestRogueHealthDeterministic pins the dispatcher health and quarantine
// counters under the parallel harness: the safety numbers the rogue sweep
// reports must not depend on worker scheduling.
func TestRogueHealthDeterministic(t *testing.T) {
	counts := []int{0, 2}
	defer SetParallelism(0)
	SetParallelism(1)
	seq, err := Rogue(counts)
	if err != nil {
		t.Fatal(err)
	}
	SetParallelism(4)
	par, err := Rogue(counts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("Rogue rows differ between sequential and parallel runs:\nseq: %+v\npar: %+v", seq, par)
	}
	var quarantined int
	for _, r := range seq {
		quarantined += r.Quarantined
	}
	if quarantined == 0 {
		t.Fatal("rogue sweep with 2 rogues should quarantine at least one extension")
	}
}

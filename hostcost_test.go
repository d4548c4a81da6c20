package repro

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"plexus/internal/bench"
)

// hostCostFile holds, per fenced sweep, the heap allocations one sequential
// run makes, measured on the toolchain it names.
const hostCostFile = "testdata/hostcost.json"

// hostCost is one sweep's allocation ceiling: runtime.MemStats.Mallocs and
// TotalAlloc over one run at parallelism 1.
type hostCost struct {
	Mallocs    uint64 `json:"mallocs"`
	TotalAlloc uint64 `json:"total_alloc"`
}

type hostCosts struct {
	Toolchain string              `json:"toolchain"`
	Sweeps    map[string]hostCost `json:"sweeps"`
}

// The host-cost fence bounds each ceiling from both sides: more than 1 %
// above it is a regression, more than 5 % below it a gain the file must
// record, so the ceilings keep tracking what the code costs.
const (
	hostCostOver  = 1.01
	hostCostUnder = 0.95
)

// TestHostCost is the simulator's own cost fence: it runs every sweep
// TestCommittedSweeps fences once, sequentially, and holds the heap
// allocations each makes to its ceiling in testdata/hostcost.json. The
// committed rows fix what the simulator computes; this fixes what computing
// it costs the host, in the two counts that repeat from run to run (time
// does not). On a failure, or on another toolchain, it prints the measured
// file to commit with the change that moved it.
//
// The sweeps run on one P (GOMAXPROCS 1) so that the counts are the sweep's
// own: with more Ps, the runtime may start an OS thread inside a measured
// window on a busy machine, heap-allocating its m, g0, gsignal and profiling
// stacks (5,248 B on go1.24 linux/amd64, fig5 +1.2 %), and a goroutine that
// moves between Ps misses the sync.Pool entries left in the other P's
// private slot.
func TestHostCost(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector allocation counts are not the program's: its runtime drops sync.Pool entries at random and allocates more (fig6 a third more objects)")
	}
	var want hostCosts
	data, err := os.ReadFile(hostCostFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	// Allocation counts depend on the toolchain and platform as well as the
	// code.
	got := hostCosts{Toolchain: runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH, Sweeps: map[string]hostCost{}}
	defer bench.SetParallelism(0)
	bench.SetParallelism(1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var failures []string
	for _, sw := range fencedSweeps() {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := sw.Run(); err != nil {
			t.Fatalf("%s: %v", sw.Name, err)
		}
		runtime.ReadMemStats(&after)
		c := hostCost{Mallocs: after.Mallocs - before.Mallocs, TotalAlloc: after.TotalAlloc - before.TotalAlloc}
		got.Sweeps[sw.Name] = c
		ceil, ok := want.Sweeps[sw.Name]
		if !ok {
			failures = append(failures, sw.Name+": no ceiling")
			continue
		}
		failures = append(failures, checkCeiling(sw.Name, "mallocs", c.Mallocs, ceil.Mallocs)...)
		failures = append(failures, checkCeiling(sw.Name, "total_alloc", c.TotalAlloc, ceil.TotalAlloc)...)
	}
	for name := range want.Sweeps {
		if _, ok := got.Sweeps[name]; !ok {
			failures = append(failures, name+": ceiling for a sweep that is not fenced")
		}
	}
	if want.Toolchain != got.Toolchain {
		failures = append([]string{fmt.Sprintf("ceilings were measured on %s, this is %s: re-measure them on this toolchain", want.Toolchain, got.Toolchain)}, failures...)
	}
	if len(failures) > 0 {
		measured, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s\nif the change is intended, commit this as %s:\n%s", strings.Join(failures, "\n"), hostCostFile, measured)
	}
}

// checkCeiling reports a count more than hostCostOver above its ceiling or
// more than hostCostUnder below it.
func checkCeiling(sweep, what string, got, ceil uint64) []string {
	switch {
	case float64(got) > float64(ceil)*hostCostOver:
		return []string{fmt.Sprintf("%s: %s %d is %+.1f%% over its ceiling %d", sweep, what, got, pct(got, ceil), ceil)}
	case float64(got) < float64(ceil)*hostCostUnder:
		return []string{fmt.Sprintf("%s: %s %d is %+.1f%% under its ceiling %d: lower the ceiling", sweep, what, got, pct(got, ceil), ceil)}
	}
	return nil
}

func pct(got, ceil uint64) float64 { return 100 * (float64(got) - float64(ceil)) / float64(ceil) }

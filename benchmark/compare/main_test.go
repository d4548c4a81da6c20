package main

import (
	"bytes"
	"strings"
	"testing"

	"plexus/benchmark/results"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}

func TestVerdicts(t *testing.T) {
	lower := bound{Name: "cpu_us_per_op", Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{100, 140, 70, 120, 85, 130, 75, 110, 95, 105}
	for _, c := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"same runs", steady, steady, "unchanged"},
		{"20% lower on every pair", steady, scale(steady, 0.8), "improved"},
		{"5% higher, inside the bound", steady, scale(steady, 1.05), "unchanged"},
		{"15% higher", steady, scale(steady, 1.15), "regressed"},
		{"parent spread wider than the bound", noisy, scale(noisy, 1.02), "unresolved"},
	} {
		if got := verdict(lower, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	higher := bound{Name: "ops_per_wall_s", Better: "higher", Bound: 0.10}
	if got := verdict(higher, steady, scale(steady, 0.8)); got != "regressed" {
		t.Errorf("20%% fewer ops/s: %s", got)
	}
}

func TestCompareFlagsChangedDigestAndFailures(t *testing.T) {
	bf := benchmarkFile{EndToEnd: []bound{{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}}}
	bf.Workloads = append(bf.Workloads, struct {
		Name string `json:"name"`
	}{"tcp-bulk"})
	set := func(digest string, failed uint64) *results.Set {
		return &results.Set{Runs: []results.Run{{Workload: "tcp-bulk", Seed: 1, Digest: digest, Attempted: 10, Failed: failed,
			EndToEnd: map[string]float64{"setup_s": 1}}}}
	}
	var out bytes.Buffer
	if bad := compare(&out, bf, set("aa", 0), set("aa", 0)); bad || !strings.Contains(out.String(), "unchanged") {
		t.Errorf("identical sets: bad=%v\n%s", bad, out.String())
	}
	out.Reset()
	if bad := compare(&out, bf, set("aa", 0), set("bb", 1)); !bad || !strings.Contains(out.String(), "DIFFERS") || !strings.Contains(out.String(), "INCREASED") {
		t.Errorf("changed digest and a failure: bad=%v\n%s", bad, out.String())
	}
}

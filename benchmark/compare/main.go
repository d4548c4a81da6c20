// Command compare reads two result sets written by `benchmark -out` — the
// parent commit's and a change's, made with the same seeds — and prints, for
// every end-to-end metric on every workload in its own row, both sides'
// medians and quartiles and one verdict:
//
//	improved    the change wins at least nine tenths of the seed-matched
//	            pairs (ties count for neither side) and the medians differ
//	            by more than the spread of the parent's own runs
//	regressed   the change's median is worse than the parent's by more than
//	            the bound BENCHMARK.json fixes for the metric
//	unresolved  within the bound, but the parent's own run-to-run spread is
//	            wider than the bound, so "no regression" cannot be shown
//	            (unless every run of the change beats every run of the parent)
//	unchanged   within the bound, and the spread is narrower than the bound
//
// Every ratio is printed with its base. The exit status is 1 if any row
// regressed, a workload's failed ops increased, or a result set is unusable.
//
//	go run ./benchmark/compare parent.json change.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"plexus/benchmark/results"
)

type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	decl := fs.String("benchmark", "BENCHMARK.json", "the file that fixes each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: compare [-benchmark BENCHMARK.json] parent.json change.json")
		return 2
	}
	b, err := os.ReadFile(*decl)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		fmt.Fprintf(stderr, "compare: %s: %v\n", *decl, err)
		return 1
	}
	parent, err := results.Load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	change, err := results.Load(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	if compare(stdout, bf, parent, change) {
		return 1
	}
	return 0
}

// quartiles are the three cut points Python's statistics.quantiles(xs, n=4)
// returns (the exclusive method), so this table and the driver's acceptance
// arithmetic agree. One value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// byWorkload groups a set's runs, ordered by seed so pairs line up.
func byWorkload(s *results.Set) map[string][]results.Run {
	out := map[string][]results.Run{}
	for _, r := range s.Runs {
		out[r.Workload] = append(out[r.Workload], r)
	}
	for _, runs := range out {
		sort.Slice(runs, func(i, j int) bool { return runs[i].Seed < runs[j].Seed })
	}
	return out
}

// verdict applies the rules in the package comment to one metric on one
// workload. a and b are seed-matched.
func verdict(m bound, a, b []float64) string {
	lower := m.Better == "lower"
	better := func(x, y float64) bool { // x better than y
		if lower {
			return x < y
		}
		return x > y
	}
	q1, medA, q3 := quartiles(a)
	_, medB, _ := quartiles(b)
	spread := q3 - q1
	wins, all := 0, true
	for i := range a {
		if better(b[i], a[i]) {
			wins++
		}
	}
	for _, x := range b {
		for _, y := range a {
			all = all && better(x, y)
		}
	}
	diff := medB - medA
	if diff < 0 {
		diff = -diff
	}
	if float64(wins) >= 0.9*float64(len(a)) && better(medB, medA) && diff > spread {
		return "improved"
	}
	worse := medB - medA
	if !lower {
		worse = medA - medB
	}
	limit := m.Bound * abs(medA)
	switch {
	case worse > limit:
		return "regressed"
	case spread > limit && !all:
		return "unresolved"
	}
	return "unchanged"
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// compare prints the table and reports whether anything got worse.
func compare(w io.Writer, bf benchmarkFile, parent, change *results.Set) (bad bool) {
	pa, ch := byWorkload(parent), byWorkload(change)
	fmt.Fprintf(w, "%-12s %-20s %-6s | %-38s | %-38s | %-22s | %s\n", "workload", "metric", "better",
		"parent median [q1, q3]", "change median [q1, q3]", "change/parent", "verdict")
	for _, wl := range bf.Workloads {
		a, b := pa[wl.Name], ch[wl.Name]
		if len(a) == 0 || len(a) != len(b) {
			fmt.Fprintf(w, "%-12s parent has %d runs and change %d: nothing to pair\n", wl.Name, len(a), len(b))
			bad = true
			continue
		}
		digests := "identical on every seed"
		var failedA, failedB, attA, attB uint64
		for i := range a {
			if a[i].Seed != b[i].Seed {
				fmt.Fprintf(w, "%-12s run %d: seeds %d and %d do not match\n", wl.Name, i, a[i].Seed, b[i].Seed)
				bad = true
			}
			if a[i].Digest != b[i].Digest {
				digests = "DIFFERS (simulated results changed)"
			}
			failedA, failedB = failedA+a[i].Failed, failedB+b[i].Failed
			attA, attB = attA+a[i].Attempted, attB+b[i].Attempted
		}
		for _, m := range bf.EndToEnd {
			var xa, xb []float64
			for i := range a {
				xa = append(xa, a[i].EndToEnd[m.Name])
				xb = append(xb, b[i].EndToEnd[m.Name])
			}
			a1, a2, a3 := quartiles(xa)
			b1, b2, b3 := quartiles(xb)
			v := verdict(m, xa, xb)
			bad = bad || v == "regressed"
			fmt.Fprintf(w, "%-12s %-20s %-6s | %12.6g [%10.6g, %10.6g] | %12.6g [%10.6g, %10.6g] | %8.4f of %-10.6g | %s (bound %.3g of parent, %d pairs)\n",
				wl.Name, m.Name, m.Better, a2, a1, a3, b2, b1, b3, b2/a2, a2, v, m.Bound, len(xa))
		}
		failVerdict := "no increase"
		if float64(failedB)*float64(attA) > float64(failedA)*float64(attB) {
			failVerdict = "INCREASED"
			bad = true
		}
		fmt.Fprintf(w, "%-12s %-20s %-6s | %12d of %-25d | %12d of %-25d | %22s | %s\n", wl.Name, "fail_ratio", "lower",
			failedA, attA, failedB, attB, "", failVerdict)
		fmt.Fprintf(w, "%-12s %-20s %-6s | %s\n", wl.Name, "sim_digest", "", digests)
	}
	return bad
}

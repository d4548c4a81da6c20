package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"plexus/benchmark/workload"
)

// smokeSize shrinks every workload's simulated work so the whole package
// runs in seconds; the shapes (topology, clients, pipeline, checks) are the
// benchmark's own.
const smokeSize = 0.02

// TestWorkloadsVerifyAndRepeat runs every workload twice on one seed and once
// on another: no op may fail its oracle, the digest of the simulated outputs
// must repeat exactly, and a different seed must change it — except on
// paper-suite, whose rigs pin seed 1 inside internal/bench.
func TestWorkloadsVerifyAndRepeat(t *testing.T) {
	for _, wl := range workload.All() {
		a, err := wl.Run(workload.Params{Seed: 1, Size: smokeSize})
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if a.Failed != 0 || a.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", wl.Name, a.Failed, a.Attempted, a.Failures)
		}
		b, err := wl.Run(workload.Params{Seed: 1, Size: smokeSize})
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if a.Digest != b.Digest {
			t.Errorf("%s: sim_digest %016x then %016x on the same seed", wl.Name, a.Digest, b.Digest)
		}
		if !reflect.DeepEqual(a.Counters, b.Counters) || a.Sim != b.Sim {
			t.Errorf("%s: simulated metrics or per-layer counts differ between two runs of one seed", wl.Name)
		}
		c, err := wl.Run(workload.Params{Seed: 2, Size: smokeSize})
		if err != nil {
			t.Fatalf("%s seed 2: %v", wl.Name, err)
		}
		if changed := c.Digest != a.Digest; changed == (wl.Name == "paper-suite") {
			t.Errorf("%s: seed 2 changed the digest: %v", wl.Name, changed)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestDeclaredNamesMatchBenchmarkJSON holds BENCHMARK.json to the catalogue
// the command prints from: same workloads, same metrics, same units,
// directions and bounds.
func TestDeclaredNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var got []string
	for _, w := range bf.Workloads {
		got = append(got, w.Name)
	}
	var want []string
	for _, w := range workload.All() {
		want = append(want, w.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workloads: BENCHMARK.json has %v, the benchmark runs %v", got, want)
	}
	var e2e, layers []metric
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metric{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metric{m.Name, m.Unit, m.Better, 0})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has\n%v\nthe benchmark prints\n%v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json and the catalogue in metrics.go differ")
	}
	seen := map[string]bool{}
	for _, n := range append(append(got, names(endToEnd)...), names(perLayer)...) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if !reflect.DeepEqual(bf.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(bf.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", bf.Command, bf.Paths)
	}
}

func names(ms []metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

// TestEveryMetricIsWired runs the traced path of every workload and the
// probes at smoke size: each declared per-layer metric must be produced by at
// least one workload (a declared name nothing fills is a typo), the traced
// repetition must leave the digest alone, and the trace file's hops must share
// their packet's span id.
func TestEveryMetricIsWired(t *testing.T) {
	dir := t.TempDir()
	filled := map[string]bool{}
	for _, wl := range workload.All() {
		rep, err := measureTraced(wl, options{seed: 1, size: smokeSize, outDir: dir})
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if !rep.line.Correct {
			t.Errorf("%s: traced run failed ops: %v", wl.Name, rep.notes)
		}
		for k := range rep.values {
			filled[k] = true
		}
		b, err := os.ReadFile(dir + "/trace-" + wl.Name + ".jsonl")
		if err != nil {
			t.Fatal(err)
		}
		checkTrace(t, wl.Name, b)
	}
	for _, m := range perLayer {
		if !filled[m.Name] {
			t.Errorf("per-layer metric %s is declared but no workload produces it", m.Name)
		}
	}
}

// checkTrace verifies the JSONL: a root span, probe spans under it, and hops
// whose cause is an earlier hop of the same packet.
func checkTrace(t *testing.T, wl string, b []byte) {
	t.Helper()
	type rec struct {
		Type   string `json:"type"`
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent"`
		Span   uint64 `json:"span"`
		Cause  uint64 `json:"cause"`
		Name   string `json:"name"`
	}
	spanOf := map[uint64]uint64{}
	var hops, caused, probes int
	var root uint64
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var r rec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("%s: trace line %q: %v", wl, line, err)
		}
		switch r.Type {
		case "span":
			if r.Parent == 0 {
				root = r.ID
			} else if r.Parent == root && strings.HasPrefix(r.Name, "probe:") {
				probes++
			}
		case "hop":
			hops++
			spanOf[r.ID] = r.Span
			if r.Cause != 0 {
				if s, ok := spanOf[r.Cause]; ok {
					caused++
					if s != r.Span || r.Cause >= r.ID {
						t.Fatalf("%s: hop %d of packet %d names hop %d of packet %d as its cause", wl, r.ID, r.Span, r.Cause, s)
					}
				}
			}
		}
	}
	if root == 0 || probes == 0 || hops == 0 || caused == 0 {
		t.Errorf("%s: trace has root %d, %d probe spans, %d hops, %d with a cause in the file", wl, root, probes, hops, caused)
	}
}

// TestCommandContract drives the command the way BENCHMARK.json's driver
// does and checks the last line of its output.
func TestCommandContract(t *testing.T) {
	for mode, decl := range [][]metric{endToEnd, perLayer} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "fabric-lb", "--seed", "7", "--seconds", "0", "--trace", []string{"0", "1"}[mode],
			"-size", "0.02", "-outdir", t.TempDir()}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("exit %d: %s", code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line struct {
			Correct   *bool                `json:"correct"`
			Attempted *uint64              `json:"attempted"`
			Failed    *uint64              `json:"failed"`
			Metrics   map[string]outMetric `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted == 0 || line.Failed == nil || *line.Failed != 0 {
			t.Errorf("trace %d: result %s", mode, lines[len(lines)-1])
		}
		if len(line.Metrics) != len(decl) {
			t.Errorf("trace %d: %d metrics printed, %d declared", mode, len(line.Metrics), len(decl))
		}
		for _, m := range decl {
			got, ok := line.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("trace %d: metric %s: printed %+v", mode, m.Name, got)
			}
			if mode == 0 && got.Value <= 0 {
				t.Errorf("end-to-end metric %s is %g on fabric-lb: every one must be non-zero", m.Name, got.Value)
			}
		}
	}
	if code := run([]string{"-workload", "no-such"}, &bytes.Buffer{}, &bytes.Buffer{}); code == 0 {
		t.Error("unknown workload exited 0")
	}
}

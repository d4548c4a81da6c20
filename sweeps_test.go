package repro

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"plexus/internal/bench"
)

// TestCommittedSweeps is the behavioural fence: it regenerates the sub-second
// sweeps in-process, with cells running four at a time, and requires their
// rows to be byte-identical to the committed BENCH_<exp>.json, which were
// written sequentially. A change that does not touch the model must leave
// every simulated statistic identical; a change that does must regenerate
// the file and say so.
func TestCommittedSweeps(t *testing.T) {
	defer bench.SetParallelism(0)
	bench.SetParallelism(4)
	sweeps := []struct {
		exp string
		run func() (any, error)
	}{
		{"loss", func() (any, error) { return bench.Loss(bench.DefaultLossRates()) }},
		{"rogue", func() (any, error) { return bench.Rogue(bench.DefaultRogueCounts()) }},
		{"latency", func() (any, error) { return bench.Latency(bench.DefaultLatencyRounds) }},
		{"fabric", func() (any, error) {
			return bench.Fabric(bench.DefaultFabricRates(), bench.DefaultFabricPools(), bench.DefaultFabricDuration)
		}},
		{"telemetry", func() (any, error) {
			rows, err := bench.Telemetry()
			for _, r := range rows {
				if r.Alarms != 0 {
					t.Errorf("telemetry %s/%s: %d watchdog alarms on a clean cell", r.System, r.Workload, r.Alarms)
				}
			}
			return rows, err
		}},
	}
	for _, sw := range sweeps {
		rows, err := sw.run()
		if err != nil {
			t.Fatalf("%s: %v", sw.exp, err)
		}
		got, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		want, err := committedRows(sw.exp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s rows differ from BENCH_%s.json; if the model changed on purpose, regenerate with\n"+
				"\tgo run ./cmd/plexus-bench -exp %s -parallel 1 -json\n got: %s\nwant: %s",
				sw.exp, sw.exp, sw.exp, got, want)
		}
	}
}

// committedRows returns the compacted rows of BENCH_<exp>.json.
func committedRows(exp string) ([]byte, error) {
	data, err := os.ReadFile("BENCH_" + exp + ".json")
	if err != nil {
		return nil, err
	}
	var report struct {
		Rows json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, report.Rows); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

package repro

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"plexus/internal/bench"
)

// TestCommittedSweeps is the behavioural fence: it regenerates every
// experiment plexus-bench commits a BENCH_<exp>.json for, in-process with
// cells running four at a time, and requires its rows to be byte-identical
// to the committed file, which was written sequentially. The two long sweeps
// are fenced by a prefix: scale's client cells here, and cc and scale's
// sharded host cells in CI. A change that does not touch the model must leave
// every simulated statistic identical; a change that does must regenerate the
// file and say so.
func TestCommittedSweeps(t *testing.T) {
	defer bench.SetParallelism(0)
	bench.SetParallelism(4)
	sweeps := []struct {
		exp string
		// prefix compares the regenerated rows against the first rows of
		// the committed file, which holds more cells than run here.
		prefix bool
		run    func() (any, error)
	}{
		{"fig5", false, func() (any, error) { return bench.Fig5(false) }},
		{"tput", false, func() (any, error) { return bench.Throughput(1 << 20) }},
		{"fig6", false, func() (any, error) { return bench.Fig6([]int{1, 5, 10, 15, 20, 25, 30}) }},
		{"fig7", false, func() (any, error) { return bench.Fig7([]int{64, 256, 512, 1024, 1460}) }},
		{"http", false, func() (any, error) { return bench.HTTP(20) }},
		{"ablations", false, ablationRows},
		{"loss", false, func() (any, error) { return bench.Loss(bench.DefaultLossRates()) }},
		{"rogue", false, func() (any, error) { return bench.Rogue(bench.DefaultRogueCounts()) }},
		{"latency", false, func() (any, error) { return bench.Latency(bench.DefaultLatencyRounds) }},
		{"fabric", false, func() (any, error) {
			return bench.Fabric(bench.DefaultFabricRates(), bench.DefaultFabricPools(), bench.DefaultFabricDuration)
		}},
		{"telemetry", false, func() (any, error) {
			rows, err := bench.Telemetry()
			for _, r := range rows {
				if r.Alarms != 0 {
					t.Errorf("telemetry %s/%s: %d watchdog alarms on a clean cell", r.System, r.Workload, r.Alarms)
				}
			}
			return rows, err
		}},
		{"scale", true, func() (any, error) {
			return bench.Scale(bench.DefaultScaleClients(), nil, bench.DefaultScaleDuration)
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
		if sw.prefix {
			var gotRows []json.RawMessage
			if err := json.Unmarshal(got, &gotRows); err != nil {
				t.Fatal(err)
			}
			want = want[:min(len(want), len(gotRows))]
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantJSON) {
			t.Errorf("%s rows differ from BENCH_%s.json; if the model changed on purpose, regenerate with\n"+
				"\tgo run ./cmd/plexus-bench -exp %s -parallel 1 -json\n got: %s\nwant: %s",
				sw.exp, sw.exp, sw.exp, got, wantJSON)
		}
	}
}

// ablationRows is plexus-bench's -exp ablations: every ablation's rows, in
// the order the command prints them.
func ablationRows() (any, error) {
	var all []bench.AblationRow
	for _, run := range []func() ([]bench.AblationRow, error){
		func() ([]bench.AblationRow, error) { return bench.SpoofPolicyAblation(100) },
		func() ([]bench.AblationRow, error) { return bench.ChecksumAblation(1400) },
		func() ([]bench.AblationRow, error) { return bench.GuardChainAblation([]int{0, 10, 50, 100}) },
		func() ([]bench.AblationRow, error) { return bench.FilterBackendAblation(50) },
		func() ([]bench.AblationRow, error) { return bench.ILPAblation(10) },
	} {
		rows, err := run()
		if err != nil {
			return nil, err
		}
		all = append(all, rows...)
	}
	return all, nil
}

// committedRows returns the rows of BENCH_<exp>.json, one raw message each.
func committedRows(exp string) ([]json.RawMessage, error) {
	data, err := os.ReadFile("BENCH_" + exp + ".json")
	if err != nil {
		return nil, err
	}
	var report struct {
		Rows []json.RawMessage `json:"rows"`
	}
	err = json.Unmarshal(data, &report)
	return report.Rows, err
}

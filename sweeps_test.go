package repro

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"plexus/internal/bench"
)

// TestCommittedSweeps is the behavioural fence: it regenerates every
// experiment of bench.Sweeps, in-process with cells running four at a time,
// and requires its rows to be byte-identical to the committed
// BENCH_<exp>.json, which was written sequentially. The two long sweeps are
// CI's: cc is skipped here, and scale runs without its sharded host cells and
// is compared against exactly the committed rows that have no hosts field. A
// change that does not touch the model must leave every simulated statistic
// identical; a change that does must regenerate the file and say so.
func TestCommittedSweeps(t *testing.T) {
	defer bench.SetParallelism(0)
	bench.SetParallelism(4)
	for _, sw := range fencedSweeps() {
		rows, err := sw.Run()
		if err != nil {
			t.Fatalf("%s: %v", sw.Name, err)
		}
		got, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		var want []json.RawMessage
		if err := readCommitted(sw.Name, &want); err != nil {
			t.Fatal(err)
		}
		if sw.Name == "scale" { // its client cells: the rows without a hosts field
			want = slices.DeleteFunc(want, func(row json.RawMessage) bool { return bytes.Contains(row, []byte(`"hosts":`)) })
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantJSON) {
			t.Errorf("%s rows differ from BENCH_%s.json; if the model changed on purpose, regenerate with\n"+
				"\tgo run ./cmd/plexus-bench -exp %s -parallel 1 -json\n got: %s\nwant: %s",
				sw.Name, sw.Name, sw.Name, got, wantJSON)
		}
	}
}

// fencedSweeps is every sweep of bench.Sweeps but cc, with scale's sharded
// host cells left out: the sweeps tier-1 runs.
func fencedSweeps() []bench.Sweep {
	return slices.DeleteFunc(bench.Sweeps(nil), func(sw bench.Sweep) bool { return sw.Name == "cc" })
}

// readCommitted decodes the rows of BENCH_<exp>.json into rows, a pointer.
func readCommitted(exp string, rows any) error {
	data, err := os.ReadFile("BENCH_" + exp + ".json")
	if err != nil {
		return err
	}
	return json.Unmarshal(data, &struct {
		Rows any `json:"rows"`
	}{rows})
}

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"plexus/internal/osmodel"
)

// boundaries are the three systems of the paper's Figure 5, each with the
// file-name stem of its goldens.
var boundaries = []struct {
	name string
	b    osmodel.Boundary
}{
	{"plexus-interrupt", osmodel.PlexusInterrupt},
	{"plexus-thread", osmodel.PlexusThread},
	{"digital-unix", osmodel.DigitalUnix},
}

// runOut runs o on boundary b and returns what it printed.
func runOut(t *testing.T, o options, b osmodel.Boundary) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(&out, o, b); err != nil {
		t.Fatalf("%s on %v: %v", o.scenario, b, err)
	}
	return out.String()
}

// TestTimelineGolden fences every scenario's task and hop timeline on every
// boundary against testdata/<scenario>-<boundary>.txt. Each task's label,
// priority, start and charge and each hop's place and time are what the
// paper's comparison is made of, so a change that is meant to keep simulated
// behaviour must leave these files untouched. After an intended model change,
// regenerate a file from the output this test prints.
func TestTimelineGolden(t *testing.T) {
	for _, sc := range []string{"udp", "tcp", "ping"} {
		for _, bd := range boundaries {
			got := runOut(t, options{scenario: sc}, bd.b)
			path := filepath.Join("testdata", sc+"-"+bd.name+".txt")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got == string(want) {
				continue
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			i := 0
			for i < min(len(gl), len(wl)) && gl[i] == wl[i] {
				i++
			}
			t.Errorf("%s differs at line %d\n got: %q\nwant: %q\nfull output:\n%s",
				path, i+1, line(gl, i), line(wl, i), got)
		}
	}
}

// line is lines[i], or "" past the end.
func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}

// TestSpanViews checks that -spans lists the recorded spans and -follow
// prints one span's itinerary.
func TestSpanViews(t *testing.T) {
	if out := runOut(t, options{scenario: "tcp", spans: true}, osmodel.PlexusInterrupt); !strings.Contains(out, "follow one with") {
		t.Errorf("-spans printed no span list:\n%s", out)
	}
	if out := runOut(t, options{scenario: "tcp", follow: 1}, osmodel.PlexusInterrupt); !strings.Contains(out, "total") {
		t.Errorf("-follow 1 printed no itinerary:\n%s", out)
	}
	if err := run(&bytes.Buffer{}, options{scenario: "tcp", follow: 1 << 30}, osmodel.PlexusInterrupt); err == nil {
		t.Error("-follow of an unrecorded span succeeded")
	}
}

// TestExportsDeterministic fences the exports byte for byte: every
// scenario's Chrome trace on every boundary against its SHA-256 in
// testdata/chrome.sha256 (the traces are megabytes), and the tcp scenario's
// JSONL transitions against testdata/tcp-<boundary>.jsonl. It also checks
// that the Chrome trace parses and that the folded profile is written. After
// an intended model change, regenerate the files from -chrome and -tcpjsonl
// output with sha256sum.
func TestExportsDeterministic(t *testing.T) {
	sums, err := os.ReadFile(filepath.Join("testdata", "chrome.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	wantSum := map[string]string{}
	for _, l := range strings.Split(strings.TrimSpace(string(sums)), "\n") {
		sum, name, _ := strings.Cut(l, "  ")
		wantSum[name] = sum
	}
	read := func(path string) []byte {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Fatalf("%s is empty", path)
		}
		return data
	}
	dir := t.TempDir()
	for _, sc := range []string{"udp", "tcp", "ping"} {
		for _, bd := range boundaries {
			name := sc + "-" + bd.name
			o := options{scenario: sc, chrome: filepath.Join(dir, name+".json")}
			if sc == "tcp" {
				o.tcpjsonl = filepath.Join(dir, name+".jsonl")
			}
			runOut(t, o, bd.b)
			if got := fmt.Sprintf("%x", sha256.Sum256(read(o.chrome))); got != wantSum[name+".json"] {
				t.Errorf("%s.json: sha256 %s, want %s", name, got, wantSum[name+".json"])
			}
			if o.tcpjsonl == "" {
				continue
			}
			want := read(filepath.Join("testdata", name+".jsonl"))
			if got := read(o.tcpjsonl); !bytes.Equal(got, want) {
				t.Errorf("%s.jsonl differs from testdata:\n%s", name, got)
			}
		}
	}

	o := options{scenario: "tcp", chrome: filepath.Join(dir, "trace.json"), folded: filepath.Join(dir, "folded.txt")}
	runOut(t, o, osmodel.PlexusInterrupt)
	read(o.folded)
	chrome := read(o.chrome)
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &trace); err != nil {
		t.Fatalf("Chrome trace does not parse: %v", err)
	}
	pids, layers := map[int]bool{}, map[string]bool{}
	for _, ev := range trace.TraceEvents {
		pids[ev.Pid] = true
		if ev.Cat == "span" {
			layer, _, _ := strings.Cut(ev.Name, ".")
			layers[layer] = true
		}
	}
	if len(pids) < 2 || len(layers) < 3 {
		t.Errorf("Chrome trace has %d pids and hop layers %v; want >= 2 pids and >= 3 layers", len(pids), layers)
	}
}

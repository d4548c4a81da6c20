package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"plexus/internal/sim"
	"plexus/internal/stats"
	"plexus/internal/tcp"
	"plexus/internal/telemetry"
)

// TestWriteChrome feeds writeChrome every kind of input — two samples and
// two hops on two hosts, one telemetry point, one TCP transition — and
// checks each lands as its event kind under its host's pid, and that a
// second export is byte-identical.
func TestWriteChrome(t *testing.T) {
	r := stats.NewRecorder()
	r.Sample("client", sim.ProfTask, "app", sim.PrioUser, 0, 10*sim.Microsecond)
	r.Sample("server", sim.ProfProto, "ip", sim.PrioKernel, 5*sim.Microsecond, 2*sim.Microsecond)
	r.Hop(1, sim.Microsecond, "client", "udp", "send", 8)
	r.Hop(1, 8*sim.Microsecond, "server", "udp", "recv", 8)

	s := sim.New(1)
	eng := telemetry.New(s, telemetry.Options{})
	se := eng.Series("tcp.cwnd", "server", "conn=80")
	eng.Register(func(sm *telemetry.Sample) { sm.Observe(se, 2920) })
	eng.Tick()

	transitions := []tcp.Transition{{At: 3 * sim.Microsecond, Host: "client", Old: tcp.StateSynSent, New: tcp.StateEstablished}}

	var buf bytes.Buffer
	counters, err := writeChrome(&buf, r, eng, transitions)
	if err != nil {
		t.Fatal(err)
	}
	if counters != 1 {
		t.Fatalf("writeChrome reported %d counter points, want 1", counters)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	pids := make(map[int]bool)
	phases := make(map[string]int)
	for _, e := range trace.TraceEvents {
		pids[e.Pid] = true
		phases[e.Ph]++
		switch {
		case e.Ph == "C" && (e.Name != "tcp.cwnd{conn=80}" || e.Pid != 2):
			t.Errorf("counter %q on pid %d, want tcp.cwnd{conn=80} on the server's pid 2", e.Name, e.Pid)
		case e.Ph == "i" && e.Tid == stateTid && e.Pid != 1:
			t.Errorf("state instant %q on pid %d, want the client's pid 1", e.Name, e.Pid)
		}
	}
	if len(pids) != 2 || !pids[1] || !pids[2] {
		t.Fatalf("want host processes 1 and 2, got pids %v", pids)
	}
	if phases["X"] != 2 || phases["i"] != 3 || phases["C"] != 1 {
		t.Fatalf("X=%d i=%d C=%d, want 2/3/1", phases["X"], phases["i"], phases["C"])
	}

	var buf2 bytes.Buffer
	if _, err := writeChrome(&buf2, r, eng, transitions); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("Chrome trace export is not deterministic")
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"plexus/internal/sim"
	"plexus/internal/stats"
	"plexus/internal/tcp"
	"plexus/internal/telemetry"
)

// Chrome trace_event export: the recorder's profiler samples become complete
// ("X") slices and its packet hops instant ("i") events, the telemetry
// series counter ("C") tracks and the audited TCP transitions instants on a
// "states" track, grouped one process per simulated host and one thread per
// profile kind. The JSON loads directly in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
//
// Timestamps are simulated microseconds rendered as integers-plus-fraction
// via float64 — exact for any plausible run length, and marshalled by
// encoding/json deterministically, so two identical runs produce identical
// files.

// chromeEvent is one trace_event record. Field order follows the trace_event
// spec's conventional ordering.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`

	host string // becomes Pid once every host is known
}

// chromeTrace is the JSON object format of a trace_event file.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// micros converts simulated time to trace_event microseconds.
func micros(t sim.Time) float64 { return float64(t) / 1000.0 }

// The hop track shares the per-host process with the profiler threads, and
// the state-transition instants get their own track beside it.
const (
	hopTid   = 100
	stateTid = 101
)

// writeChrome writes rec's samples and hops, every retained point of eng's
// series (in key order, oldest first; a labeled series keeps its labels in
// the track name, so each connection or port gets its own track) and the
// transitions (in recording order) as one trace_event file, and reports how
// many counter points it wrote. Hosts take pids in sorted order.
func writeChrome(w io.Writer, rec *stats.Recorder, eng *telemetry.Engine, transitions []tcp.Transition) (int, error) {
	var body []chromeEvent
	for _, s := range rec.Samples() {
		body = append(body, chromeEvent{
			Name: s.Owner, Cat: s.Kind.String(), Ph: "X",
			Ts: micros(s.Start), Dur: micros(s.Dur), Tid: int(s.Kind) + 1,
			Args: map[string]any{"prio": s.Prio.String()}, host: s.Host,
		})
	}
	for _, h := range rec.Hops() {
		body = append(body, chromeEvent{
			Name: h.Layer + "." + h.Action, Cat: "span", Ph: "i",
			Ts: micros(h.At), Tid: hopTid, Scope: "t",
			Args: map[string]any{"span": h.Span, "bytes": h.Bytes}, host: h.Host,
		})
	}
	counters := 0
	var pts []telemetry.Point
	for _, se := range eng.SortedSeries() {
		name := se.Name()
		if lbl := se.Labels(); lbl != "" {
			name += "{" + lbl + "}"
		}
		pts = se.Points(pts[:0])
		counters += len(pts)
		for _, p := range pts {
			body = append(body, chromeEvent{
				Name: name, Cat: "telemetry", Ph: "C", Ts: micros(p.At),
				Args: map[string]any{"value": p.Val}, host: se.Host(),
			})
		}
	}
	for _, ev := range transitions {
		body = append(body, chromeEvent{
			Name: fmt.Sprintf("%s→%s", ev.Old, ev.New), Cat: "audit", Ph: "i",
			Ts: micros(ev.At), Tid: stateTid, Scope: "t",
			Args: map[string]any{
				"conn":  fmt.Sprintf("%v:%d-%v:%d", ev.LocalAddr, ev.LocalPort, ev.RemoteAddr, ev.RemotePort),
				"cause": ev.Cause.Kind.String(),
			},
			host: ev.Host,
		})
	}

	pid := make(map[string]int)
	for _, e := range body {
		pid[e.host] = 0
	}
	hosts := make([]string, 0, len(pid))
	for h := range pid {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	events := make([]chromeEvent, 0, len(hosts)*(int(sim.NumProfKinds)+3)+len(body))
	for i, h := range hosts {
		pid[h] = i + 1
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: i + 1,
			Args: map[string]any{"name": h},
		})
		for k := sim.ProfKind(0); k < sim.NumProfKinds; k++ {
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: i + 1, Tid: int(k) + 1,
				Args: map[string]any{"name": k.String()},
			})
		}
		events = append(events,
			chromeEvent{Name: "thread_name", Ph: "M", Pid: i + 1, Tid: hopTid, Args: map[string]any{"name": "packets"}},
			chromeEvent{Name: "thread_name", Ph: "M", Pid: i + 1, Tid: stateTid, Args: map[string]any{"name": "states"}})
	}
	for _, e := range body {
		e.Pid = pid[e.host]
		events = append(events, e)
	}
	return counters, json.NewEncoder(w).Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ns"})
}

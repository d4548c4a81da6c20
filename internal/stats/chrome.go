package stats

import (
	"encoding/json"
	"io"
	"sort"

	"plexus/internal/sim"
)

// Chrome trace_event export: the retained profiler samples become complete
// ("X") slices and the packet hops become instant ("i") events, grouped one
// process per simulated host and one thread per profile kind. The resulting
// JSON loads directly in Perfetto (ui.perfetto.dev) or chrome://tracing.
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

// ChromeCounter is one point on a counter track ("C" event): a telemetry
// series sample rendered as a stacked area chart under the host's process.
type ChromeCounter struct {
	Host  string
	Name  string // counter track name, e.g. "tcp.cwnd conn=5001-10.0.0.2:80"
	At    sim.Time
	Value int64
}

// ChromeInstant is one instant event on a host's state track — an audit
// transition rendered into the timeline next to the profiler slices that
// caused it.
type ChromeInstant struct {
	Host string
	Name string // e.g. "tcp FinWait1->TimeWait"
	At   sim.Time
	Args map[string]any
}

// WriteChromeTraceWith emits the profiler timeline plus externally supplied
// counter tracks (telemetry series) and instant events (audit transitions),
// merged into the same per-host processes so queue depths and window sizes
// line up under the slices that produced them.
func (r *Recorder) WriteChromeTraceWith(w io.Writer, counters []ChromeCounter, instants []ChromeInstant) error {
	samples := r.Samples()
	hops := r.Hops()

	// Assign stable pids: hosts in sorted order.
	hostSet := make(map[string]bool)
	for _, s := range samples {
		hostSet[s.Host] = true
	}
	for _, h := range hops {
		hostSet[h.Host] = true
	}
	for _, c := range counters {
		hostSet[c.Host] = true
	}
	for _, in := range instants {
		hostSet[in.Host] = true
	}
	hosts := make([]string, 0, len(hostSet))
	for h := range hostSet {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	pid := make(map[string]int, len(hosts))
	for i, h := range hosts {
		pid[h] = i + 1
	}

	events := make([]chromeEvent, 0, len(samples)+len(hops)+len(hosts)*(int(sim.NumProfKinds)+2))
	for _, h := range hosts {
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid[h], Tid: 0,
			Args: map[string]any{"name": h},
		})
		for k := sim.ProfKind(0); k < sim.NumProfKinds; k++ {
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid[h], Tid: int(k) + 1,
				Args: map[string]any{"name": k.String()},
			})
		}
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid[h], Tid: hopTid,
			Args: map[string]any{"name": "packets"},
		})
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid[h], Tid: stateTid,
			Args: map[string]any{"name": "states"},
		})
	}
	for _, s := range samples {
		events = append(events, chromeEvent{
			Name: s.Owner, Cat: s.Kind.String(), Ph: "X",
			Ts: micros(s.Start), Dur: micros(s.Dur),
			Pid: pid[s.Host], Tid: int(s.Kind) + 1,
			Args: map[string]any{"prio": s.Prio.String()},
		})
	}
	for _, h := range hops {
		events = append(events, chromeEvent{
			Name: h.Layer + "." + h.Action, Cat: "span", Ph: "i",
			Ts: micros(h.At), Pid: pid[h.Host], Tid: hopTid, Scope: "t",
			Args: map[string]any{"span": h.Span, "bytes": h.Bytes},
		})
	}
	for _, c := range counters {
		events = append(events, chromeEvent{
			Name: c.Name, Cat: "telemetry", Ph: "C",
			Ts: micros(c.At), Pid: pid[c.Host], Tid: 0,
			Args: map[string]any{"value": c.Value},
		})
	}
	for _, in := range instants {
		events = append(events, chromeEvent{
			Name: in.Name, Cat: "audit", Ph: "i",
			Ts: micros(in.At), Pid: pid[in.Host], Tid: stateTid, Scope: "t",
			Args: in.Args,
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ns"})
}

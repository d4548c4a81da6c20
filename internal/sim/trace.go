package sim

import "fmt"

// TraceCategory selects a subsystem for trace filtering.
type TraceCategory int

// Trace categories used across the reproduction.
const (
	TraceCPU TraceCategory = iota
	TraceNet
	TraceProto
	TraceApp
	TraceEvent
	numTraceCategories
)

func (c TraceCategory) String() string {
	switch c {
	case TraceCPU:
		return "cpu"
	case TraceNet:
		return "net"
	case TraceProto:
		return "proto"
	case TraceApp:
		return "app"
	case TraceEvent:
		return "event"
	default:
		return fmt.Sprintf("TraceCategory(%d)", int(c))
	}
}

// Tracer receives formatted trace lines. A nil tracer disables tracing with
// near-zero overhead.
type Tracer interface {
	Trace(cat TraceCategory, at Time, msg string)
}

// SetTracer installs (or clears, with nil) the simulation's tracer. All
// categories start enabled; narrow with EnableTrace.
func (s *Sim) SetTracer(t Tracer) {
	s.tracer = t
	for i := range s.traceEnabled {
		s.traceEnabled[i] = t != nil
	}
}

// EnableTrace restricts trace emission to the listed categories. Filtering
// happens in the emit path, before any formatting, so a disabled category
// costs one branch — sinks like RecordingTracer.Only filter *after* the
// fmt.Sprintf has already been paid and should be reserved for sinks that
// need overlapping category sets.
func (s *Sim) EnableTrace(cats ...TraceCategory) {
	for i := range s.traceEnabled {
		s.traceEnabled[i] = false
	}
	for _, c := range cats {
		if c >= 0 && c < numTraceCategories {
			s.traceEnabled[c] = true
		}
	}
}

// Tracef emits a trace line at the current simulated time. Disabled
// categories return before the format arguments are rendered.
func (s *Sim) Tracef(cat TraceCategory, format string, args ...any) {
	s.tracef(cat, s.now, format, args...)
}

func (s *Sim) tracef(cat TraceCategory, at Time, format string, args ...any) {
	if s.tracer == nil || cat < 0 || cat >= numTraceCategories || !s.traceEnabled[cat] {
		return
	}
	s.tracer.Trace(cat, at, fmt.Sprintf(format, args...))
}

// RecordingTracer accumulates trace lines, optionally filtered by category;
// tests and the plexus-trace tool use it.
type RecordingTracer struct {
	// Only, when non-nil, restricts recording to the listed categories.
	Only map[TraceCategory]bool
	// Lines holds the recorded trace in order.
	Lines []TraceLine
}

// TraceLine is one recorded trace entry.
type TraceLine struct {
	Cat TraceCategory
	At  Time
	Msg string
}

// Trace implements Tracer.
func (r *RecordingTracer) Trace(cat TraceCategory, at Time, msg string) {
	if r.Only != nil && !r.Only[cat] {
		return
	}
	r.Lines = append(r.Lines, TraceLine{Cat: cat, At: at, Msg: msg})
}

// String renders the recorded trace, one line per entry.
func (r *RecordingTracer) String() string {
	var out []byte
	for _, l := range r.Lines {
		out = append(out, fmt.Sprintf("%12v [%s] %s\n", l.At, l.Cat, l.Msg)...)
	}
	return string(out)
}

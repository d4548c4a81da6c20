package sim

import "testing"

func TestEnableTraceFiltersInEmitPath(t *testing.T) {
	s := New(1)
	rec := &RecordingTracer{}
	s.SetTracer(rec)

	s.Tracef(TraceNet, "net %d", 1)
	s.Tracef(TraceApp, "app %d", 1)
	if len(rec.Lines) != 2 {
		t.Fatalf("all categories should be enabled after SetTracer, got %d lines", len(rec.Lines))
	}

	s.EnableTrace(TraceNet)
	s.Tracef(TraceNet, "net %d", 2)
	s.Tracef(TraceApp, "app %d", 2)
	s.Tracef(TraceProto, "proto %d", 2)
	if len(rec.Lines) != 3 || rec.Lines[2].Cat != TraceNet || rec.Lines[2].Msg != "net 2" {
		t.Fatalf("filtered categories leaked: %+v", rec.Lines)
	}

	// Re-installing the tracer re-enables everything.
	s.SetTracer(rec)
	s.Tracef(TraceApp, "app %d", 3)
	if len(rec.Lines) != 4 {
		t.Fatalf("SetTracer should re-enable all categories, got %d lines", len(rec.Lines))
	}

	s.SetTracer(nil)
	s.Tracef(TraceNet, "dropped %d", 4)
	if len(rec.Lines) != 4 {
		t.Fatal("nil tracer must drop all lines")
	}
}

// fmtProbe records whether fmt ever rendered it — the observable cost the
// emit-path filter is supposed to avoid.
type fmtProbe struct{ rendered *bool }

func (p fmtProbe) String() string { *p.rendered = true; return "probe" }

// TestTracefFilteredNoFormatCost pins the satellite fix: a Tracef call in a
// disabled category must return before rendering its arguments, so the
// fmt.Sprintf (and any Stringer work it triggers) is never paid.
func TestTracefFilteredNoFormatCost(t *testing.T) {
	s := New(1)
	s.SetTracer(&RecordingTracer{})
	s.EnableTrace(TraceNet)
	var rendered bool
	s.Tracef(TraceApp, "expensive %v", fmtProbe{&rendered})
	if rendered {
		t.Fatal("disabled category rendered its format arguments")
	}
	s.Tracef(TraceNet, "cheap %v", fmtProbe{&rendered})
	if !rendered {
		t.Fatal("enabled category should render its format arguments")
	}
}

func TestTracefOutOfRangeCategory(t *testing.T) {
	s := New(1)
	rec := &RecordingTracer{}
	s.SetTracer(rec)
	s.Tracef(TraceCategory(-1), "bad")
	s.Tracef(numTraceCategories, "bad")
	if len(rec.Lines) != 0 {
		t.Fatalf("out-of-range categories must be dropped, got %d lines", len(rec.Lines))
	}
}

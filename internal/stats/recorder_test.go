package stats

import (
	"testing"

	"plexus/internal/sim"
)

func TestRecorderRingOverwrite(t *testing.T) {
	r := newRecorder(4)
	for i := 0; i < 6; i++ {
		r.Hop(uint64(i), sim.Time(i)*sim.Microsecond, "h", "ip", "send", 8)
		r.Sample("h", sim.ProfProto, "ip", sim.PrioKernel, sim.Time(i), sim.Microsecond)
	}
	if r.HopsRecorded() != 6 {
		t.Fatalf("hops recorded=%d, want 6", r.HopsRecorded())
	}
	if n := len(r.Samples()); r.SamplesRecorded() != 6 || n != 4 {
		t.Fatalf("samples recorded=%d retained=%d, want 6/4", r.SamplesRecorded(), n)
	}
	hops := r.Hops()
	if len(hops) != 4 {
		t.Fatalf("retained %d hops, want 4", len(hops))
	}
	// Flight-recorder semantics: the oldest two were overwritten, the tail
	// is retained in recording order.
	for i, h := range hops {
		if h.Span != uint64(i+2) {
			t.Fatalf("hops[%d].Span = %d, want %d", i, h.Span, i+2)
		}
	}
}

func TestRecorderRingPartialFill(t *testing.T) {
	r := newRecorder(8)
	r.Hop(1, 0, "h", "ip", "send", 8)
	r.Hop(1, sim.Microsecond, "h", "ether", "send", 22)
	if hops := r.Hops(); len(hops) != 2 || hops[0].Layer != "ip" || hops[1].Layer != "ether" {
		t.Fatalf("unexpected retained hops: %+v", hops)
	}
}

func TestRecorderSpans(t *testing.T) {
	r := NewRecorder()
	r.Hop(3, 0, "a", "udp", "send", 8)
	r.Hop(1, 10, "a", "ip", "send", 36)
	r.Hop(3, 20, "b", "udp", "recv", 8)
	if got := r.Spans(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Spans() = %v, want [1 3]", got)
	}
	hops := r.SpanHops(3)
	if len(hops) != 2 || hops[0].Host != "a" || hops[1].Host != "b" {
		t.Fatalf("SpanHops(3) = %+v", hops)
	}
	if r.SpanHops(99) != nil {
		t.Fatalf("SpanHops of unknown span should be empty")
	}
}

func TestRecorderProfileAndFolded(t *testing.T) {
	r := NewRecorder()
	// Insert out of order; Profile must sort host, kind, descending total.
	r.Sample("b", sim.ProfCopy, "copyin", sim.PrioKernel, 0, 5*sim.Microsecond)
	r.Sample("a", sim.ProfProto, "udp", sim.PrioKernel, 0, 2*sim.Microsecond)
	r.Sample("a", sim.ProfProto, "ip", sim.PrioKernel, 0, 3*sim.Microsecond)
	r.Sample("a", sim.ProfProto, "ip", sim.PrioKernel, 0, 3*sim.Microsecond)
	rows := r.Profile()
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Host != "a" || rows[0].Owner != "ip" || rows[0].Total != 6*sim.Microsecond || rows[0].Count != 2 {
		t.Fatalf("rows[0] = %+v", rows[0])
	}
	if rows[1].Owner != "udp" || rows[2].Host != "b" {
		t.Fatalf("rows out of order: %+v", rows)
	}
	want := "a;proto;ip 6000\na;proto;udp 2000\nb;copy;copyin 5000\n"
	if got := r.Folded(); got != want {
		t.Fatalf("Folded() = %q, want %q", got, want)
	}
}

// TestRecorderHotPathNoAlloc pins the flight-recorder invariant: once the
// aggregation map has seen every (host, kind, owner) triple, Hop/Sample/
// QueueDepth allocate nothing.
func TestRecorderHotPathNoAlloc(t *testing.T) {
	r := newRecorder(64)
	r.Sample("h", sim.ProfProto, "ip", sim.PrioKernel, 0, sim.Microsecond) // warm the agg key
	allocs := testing.AllocsPerRun(500, func() {
		r.Hop(1, sim.Microsecond, "h", "ip", "send", 8)
		r.Sample("h", sim.ProfProto, "ip", sim.PrioKernel, 0, sim.Microsecond)
		r.QueueDepth("h", 2)
	})
	if allocs != 0 {
		t.Fatalf("record path allocates %.2f/op, want 0", allocs)
	}
}

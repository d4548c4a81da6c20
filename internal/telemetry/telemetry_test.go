package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"plexus/internal/sim"
)

// counterSource is a test stand-in for an instrumented component.
type counterSource struct{ v int64 }

func newTestEngine(interval sim.Time, cap int) (*sim.Sim, *Engine, *counterSource) {
	s := sim.New(1)
	e := New(s, Options{Interval: interval})
	if cap > 0 {
		e.seriesCap = cap
	}
	src := &counterSource{}
	se := e.Series("test.counter", "a", "")
	e.Register(func(sm *Sample) { sm.Observe(se, src.v) })
	return s, e, src
}

func TestEngineSamplesOnInterval(t *testing.T) {
	s, e, src := newTestEngine(sim.Millisecond, 0)
	e.Start()
	src.v = 7
	s.RunUntil(10 * sim.Millisecond)
	if e.Ticks() != 10 {
		t.Fatalf("ticks = %d, want 10", e.Ticks())
	}
	se := e.Series("test.counter", "a", "")
	if se.Total() != 10 {
		t.Fatalf("points = %d, want 10", se.Total())
	}
	if !se.seen || se.lastVal != 7 {
		t.Fatalf("last = (%d, %v)", se.lastVal, se.seen)
	}
	pts := se.Points(nil)
	for i, p := range pts {
		if p.At != sim.Time(i+1)*sim.Millisecond || p.Val != 7 {
			t.Fatalf("point %d = %+v", i, p)
		}
	}
	e.Stop()
	s.RunUntil(20 * sim.Millisecond)
	if e.Ticks() != 10 {
		t.Fatalf("ticks after Stop = %d, want 10", e.Ticks())
	}
}

// TestEngineRestartKeepsRate restarts the engine before its pending tick
// lapses, then again after: either way it samples once per interval, never
// on two interleaved chains.
func TestEngineRestartKeepsRate(t *testing.T) {
	s, e, _ := newTestEngine(sim.Millisecond, 0)
	e.Start()
	s.RunUntil(500 * sim.Microsecond)
	e.Stop()
	s.RunUntil(600 * sim.Microsecond)
	e.Start() // the tick due at 1ms is still pending
	s.RunUntil(10*sim.Millisecond + 600*sim.Microsecond)
	if e.Ticks() != 10 {
		t.Fatalf("ticks after a restart within one interval = %d, want 10", e.Ticks())
	}
	e.Stop()
	s.RunUntil(12*sim.Millisecond + 600*sim.Microsecond) // the 11ms tick lapses
	e.Start()
	s.RunUntil(14*sim.Millisecond + 600*sim.Microsecond)
	if e.Ticks() != 12 {
		t.Fatalf("ticks after a restart past a lapsed tick = %d, want 12", e.Ticks())
	}
}

func TestSeriesRingOverwritesOldest(t *testing.T) {
	s, e, src := newTestEngine(sim.Millisecond, 4)
	e.Start()
	var want []int64
	for i := 1; i <= 10; i++ {
		src.v = int64(i)
		s.RunUntil(sim.Time(i) * sim.Millisecond)
		if i > 6 {
			want = append(want, int64(i))
		}
	}
	se := e.Series("test.counter", "a", "")
	pts := se.Points(nil)
	if len(pts) != 4 || se.Total() != 10 {
		t.Fatalf("retained=%d total=%d", len(pts), se.Total())
	}
	for i, p := range pts {
		if p.Val != want[i] {
			t.Fatalf("ring window %v, want %v", pts, want)
		}
	}
}

func TestTickIsZeroAlloc(t *testing.T) {
	s, e, src := newTestEngine(sim.Millisecond, 64)
	// A second series plus one rule of each kind, so the pinned path covers
	// rule evaluation too.
	se2 := e.Series("test.gauge", "a", "k=v")
	e.Register(func(sm *Sample) { sm.Observe(se2, src.v*2) })
	e.Watch(Rule{Name: "np", Kind: RuleNoProgress, Watch: se2, Window: 5 * sim.Millisecond})
	e.Watch(Rule{Name: "pin", Kind: RulePinnedAtCap, Watch: se2, Threshold: 1 << 40, Window: sim.Millisecond})
	e.Watch(Rule{Name: "near", Kind: RuleNearCap, Watch: se2, Threshold: 1 << 40, Pct: 95})
	e.Start()
	s.RunUntil(100 * sim.Millisecond) // warm: wrap the ring, settle episodes
	if allocs := testing.AllocsPerRun(200, func() { e.Tick() }); allocs != 0 {
		t.Fatalf("Tick allocates %.1f/op in steady state", allocs)
	}
}

func TestWatchdogNoProgress(t *testing.T) {
	s := sim.New(1)
	e := New(s, Options{Interval: sim.Millisecond})
	acked := e.Series("tcp.acked_bytes", "b", "conn=80-10.0.0.1:5001")
	inflight := e.Series("tcp.bytes_in_flight", "b", "conn=80-10.0.0.1:5001")
	var ack, fly int64
	e.Register(func(sm *Sample) {
		sm.Observe(acked, ack)
		sm.Observe(inflight, fly)
	})
	e.Watch(Rule{
		Name: "tcp.no_progress", Kind: RuleNoProgress,
		Watch: acked, Guard: inflight, Window: 10 * sim.Millisecond,
	})
	e.Start()

	// Progressing: no alarm.
	fly = 1000
	for i := 1; i <= 20; i++ {
		ack = int64(i) * 100
		s.RunUntil(sim.Time(i) * sim.Millisecond)
	}
	if e.AlarmTotal() != 0 {
		t.Fatalf("alarm during progress: %+v", e.Alarms())
	}
	// Frozen with bytes in flight: exactly one alarm when the window lapses.
	s.RunUntil(40 * sim.Millisecond)
	if e.AlarmTotal() != 1 {
		t.Fatalf("alarms = %d, want 1 (%+v)", e.AlarmTotal(), e.Alarms())
	}
	a := e.Alarms()[0]
	if a.Rule != "tcp.no_progress" || a.Kind != RuleNoProgress {
		t.Fatalf("alarm identity: %+v", a)
	}
	if !strings.Contains(a.Series, "host=b") || !strings.Contains(a.Series, "conn=80-10.0.0.1:5001") {
		t.Fatalf("alarm series lacks flow identity: %q", a.Series)
	}
	// Condition began at the last progress tick (20ms) and lapsed 10ms later.
	if a.Since != 20*sim.Millisecond || a.At != 30*sim.Millisecond {
		t.Fatalf("alarm window: since=%d at=%d", a.Since, a.At)
	}
	// Drain the flight: guard disarms, no further alarms even though the
	// value stays frozen.
	fly = 0
	s.RunUntil(80 * sim.Millisecond)
	if e.AlarmTotal() != 1 {
		t.Fatalf("alarm re-fired while disarmed: %d", e.AlarmTotal())
	}
}

func TestWatchdogPinnedAtCap(t *testing.T) {
	s := sim.New(1)
	e := New(s, Options{Interval: sim.Millisecond})
	depth := e.Series("switch.queue_depth", "sw0", "port=2")
	var d int64
	e.Register(func(sm *Sample) { sm.Observe(depth, d) })
	e.Watch(Rule{Name: "switch.queue_pinned", Kind: RulePinnedAtCap,
		Watch: depth, Threshold: 64, Window: 5 * sim.Millisecond})
	e.Start()

	d = 63 // below cap: never fires
	s.RunUntil(10 * sim.Millisecond)
	d = 64 // at cap: fires after the window holds
	s.RunUntil(14 * sim.Millisecond)
	if e.AlarmTotal() != 0 {
		t.Fatalf("fired before window lapsed: %+v", e.Alarms())
	}
	s.RunUntil(30 * sim.Millisecond)
	if e.AlarmTotal() != 1 {
		t.Fatalf("alarms = %d, want 1", e.AlarmTotal())
	}
	a := e.Alarms()[0]
	if a.Since != 11*sim.Millisecond || a.At != 16*sim.Millisecond || a.Value != 64 {
		t.Fatalf("episode: %+v", a)
	}
	// Dip below and pin again: a second episode fires.
	d = 10
	s.RunUntil(32 * sim.Millisecond)
	d = 70
	s.RunUntil(50 * sim.Millisecond)
	if e.AlarmTotal() != 2 {
		t.Fatalf("second episode: alarms = %d, want 2", e.AlarmTotal())
	}
}

func TestWatchdogNearCap(t *testing.T) {
	s := sim.New(1)
	e := New(s, Options{Interval: sim.Millisecond})
	hw := e.Series("mbuf.high_water", "a", "")
	var v int64
	e.Register(func(sm *Sample) { sm.Observe(hw, v) })
	e.Watch(Rule{Name: "mbuf.near_cap", Kind: RuleNearCap, Watch: hw, Threshold: 1000, Pct: 95})
	e.Start()

	v = 949 // below 95%
	s.RunUntil(5 * sim.Millisecond)
	if e.AlarmTotal() != 0 {
		t.Fatalf("premature: %+v", e.Alarms())
	}
	v = 950 // exactly 95%: fires instantly, once
	s.RunUntil(20 * sim.Millisecond)
	if e.AlarmTotal() != 1 {
		t.Fatalf("alarms = %d, want 1", e.AlarmTotal())
	}
	if a := e.Alarms()[0]; a.At != 6*sim.Millisecond || a.Value != 950 {
		t.Fatalf("episode: %+v", a)
	}
}

// buildDump runs one fixed scenario and returns its JSONL bytes and digest.
func buildDump(t *testing.T) ([]byte, uint64) {
	t.Helper()
	s, e, src := newTestEngine(sim.Millisecond, 8)
	extra := e.Series("test.gauge", "b", "port=3")
	e.Register(func(sm *Sample) { sm.Observe(extra, src.v+1) })
	e.Start()
	for i := 1; i <= 20; i++ {
		src.v = int64(i * i)
		s.RunUntil(sim.Time(i) * sim.Millisecond)
	}
	var buf bytes.Buffer
	if err := e.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.Bytes(), e.Digest()
}

func TestExportDeterminismAndRoundTrip(t *testing.T) {
	b1, d1 := buildDump(t)
	b2, d2 := buildDump(t)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("JSONL dumps differ across identical runs")
	}
	if d1 != d2 {
		t.Fatalf("digests differ: %x vs %x", d1, d2)
	}
	pts, err := ReadJSONL(bytes.NewReader(b1))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(pts) != 16 { // 2 series × ring cap 8
		t.Fatalf("round-trip points = %d, want 16", len(pts))
	}
	if pts[0].Series != "test.counter" || pts[0].Host != "a" {
		t.Fatalf("sorted order: first point %+v", pts[0])
	}
	if last := pts[len(pts)-1]; last.Series != "test.gauge" || last.Labels != "port=3" || last.V != 401 {
		t.Fatalf("last point %+v", last)
	}
}

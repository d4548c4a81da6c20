package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{-500 * Nanosecond, "-500ns"},
		{600 * Microsecond, "600.0µs"},
		{1500 * Microsecond, "1.500ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (600 * Microsecond).Micros(); got != 600 {
		t.Errorf("Micros = %v, want 600", got)
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Seconds = %v, want 1.5", got)
	}
}

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.After(30*Microsecond, "c", func() { order = append(order, 3) })
	s.After(10*Microsecond, "a", func() { order = append(order, 1) })
	s.After(20*Microsecond, "b", func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if s.Now() != 30*Microsecond {
		t.Errorf("clock = %v, want 30µs", s.Now())
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(5*Microsecond, "e", func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-timestamp events not FIFO at %d: got %d", i, v)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.After(10*Microsecond, "advance", func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(5*Microsecond, "past", func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	s.After(-1, "neg", func() {})
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.After(10*Microsecond, "x", func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop reported failure on live timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported success")
	}
	if tm.Pending() {
		t.Fatal("Pending() = true after Stop")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired []Time
	for _, d := range []Time{10, 20, 30, 40} {
		d := d
		s.After(d*Microsecond, "e", func() { fired = append(fired, d) })
	}
	s.RunUntil(25 * Microsecond)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want first two", fired)
	}
	if s.Now() != 25*Microsecond {
		t.Errorf("clock = %v, want 25µs", s.Now())
	}
	s.Run()
	if len(fired) != 4 {
		t.Fatalf("after Run, fired %v, want all four", fired)
	}
}

func TestPending(t *testing.T) {
	s := New(1)
	a := s.After(10*Microsecond, "a", func() {})
	s.After(20*Microsecond, "b", func() {})
	a.Stop()
	s.Run()
	if got := s.Executed(); got != 1 {
		t.Fatalf("Executed = %d, want 1: a cancelled event must not run", got)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	depth := 0
	var schedule func()
	schedule = func() {
		depth++
		if depth < 10 {
			s.After(Microsecond, "nest", schedule)
		}
	}
	s.After(Microsecond, "start", schedule)
	s.Run()
	if depth != 10 {
		t.Fatalf("depth = %d, want 10", depth)
	}
	if s.Now() != 10*Microsecond {
		t.Fatalf("clock = %v, want 10µs", s.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		s := New(seed)
		var stamps []Time
		for i := 0; i < 50; i++ {
			d := Time(s.Rand().Intn(1000)) * Microsecond
			s.After(d, "e", func() { stamps = append(stamps, s.Now()) })
		}
		s.Run()
		return stamps
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		t.Fatal("event timestamps not monotone")
	}
}

// Property: for any set of delays, events fire in nondecreasing time order and
// the final clock equals the max delay.
func TestQuickEventOrderInvariant(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New(7)
		var fired []Time
		var maxT Time
		for _, d := range delays {
			d := Time(d) * Microsecond
			if d > maxT {
				maxT = d
			}
			s.After(d, "e", func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || s.Now() == maxT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestTracer(t *testing.T) {
	s := New(1)
	rec := &RecordingTracer{}
	s.SetTracer(rec)
	s.Tracef(TraceApp, "hello %d", 42)
	if len(rec.Lines) != 1 || rec.Lines[0].Msg != "hello 42" || rec.Lines[0].Cat != TraceApp {
		t.Fatalf("unexpected trace: %+v", rec.Lines)
	}
	if rec.String() == "" {
		t.Error("empty trace render")
	}
}

func TestTracerFilter(t *testing.T) {
	s := New(1)
	rec := &RecordingTracer{Only: map[TraceCategory]bool{TraceNet: true}}
	s.SetTracer(rec)
	s.Tracef(TraceApp, "drop me")
	s.Tracef(TraceNet, "keep me")
	if len(rec.Lines) != 1 || rec.Lines[0].Msg != "keep me" {
		t.Fatalf("filter failed: %+v", rec.Lines)
	}
}

func TestTraceCategoryString(t *testing.T) {
	for c := TraceCategory(0); c < numTraceCategories; c++ {
		if c.String() == "" {
			t.Errorf("empty String for category %d", int(c))
		}
	}
	if TraceCategory(99).String() != "TraceCategory(99)" {
		t.Error("unknown category String mismatch")
	}
}

// Stop after the timer fired must report false and change nothing — timer
// users re-arm based on this distinction.
func TestTimerStopAfterFire(t *testing.T) {
	s := New(1)
	fired := 0
	tm := s.After(Microsecond, "x", func() { fired++ })
	s.Run()
	if fired != 1 {
		t.Fatal("timer did not fire")
	}
	if tm.Stop() {
		t.Fatal("Stop after fire claimed to cancel")
	}
}

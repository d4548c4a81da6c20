package event

// Tests for the extension sandbox: crash containment, fault accounting,
// quarantine, and the install/uninstall lifecycle rules that keep a
// misbehaving handler from taking the rest of the graph down with it.

import (
	"errors"
	"testing"

	"plexus/internal/mbuf"
	"plexus/internal/sim"
)

func TestHandlerPanicContained(t *testing.T) {
	d := NewDispatcher(DefaultCosts())
	d.MustDeclare("E", Options{})
	var order []string
	mustInstall(t, d, "E", nil, Proc("first", func(task *sim.Task, m *mbuf.Mbuf) {
		order = append(order, "first")
	}))
	bad := mustInstall(t, d, "E", nil, Proc("bad", func(task *sim.Task, m *mbuf.Mbuf) {
		order = append(order, "bad")
		panic("rogue handler")
	}))
	mustInstall(t, d, "E", nil, Proc("last", func(task *sim.Task, m *mbuf.Mbuf) {
		order = append(order, "last")
	}))
	m := pkt(t, 0)
	var invoked int
	run(t, func(task *sim.Task) { invoked = d.Raise(task, "E", m) })
	if invoked != 3 {
		t.Fatalf("Raise invoked %d handlers, want 3 (panic must not stop dispatch)", invoked)
	}
	if len(order) != 3 || order[2] != "last" {
		t.Fatalf("dispatch order %v, want all three handlers", order)
	}
	if s := bad.Stats(); s.Panics != 1 || s.Invocations != 1 {
		t.Fatalf("bad stats = %+v, want Panics=1 Invocations=1", s)
	}
	if h := d.Health(); h.Panics != 1 || h.Faults != 1 {
		t.Fatalf("health = %+v, want Panics=1 Faults=1", h)
	}
}

func TestHandlerPanicTimeStaysCharged(t *testing.T) {
	d := NewDispatcher(Costs{})
	d.MustDeclare("E", Options{})
	mustInstall(t, d, "E", nil, Proc("burn-then-panic", func(task *sim.Task, m *mbuf.Mbuf) {
		task.Charge(7 * sim.Microsecond)
		panic("after burning CPU")
	}))
	m := pkt(t, 0)
	var charged sim.Time
	run(t, func(task *sim.Task) {
		d.Raise(task, "E", m)
		charged = task.Charged()
	})
	if charged != 7*sim.Microsecond {
		t.Fatalf("charged %v, want 7µs (a contained panic is still charged)", charged)
	}
}

func TestGuardPanicIsReject(t *testing.T) {
	d := NewDispatcher(DefaultCosts())
	d.MustDeclare("E", Options{})
	var badRan, goodRan bool
	bad := mustInstall(t, d, "E",
		func(task *sim.Task, m *mbuf.Mbuf) bool { panic("rogue guard") },
		Proc("bad", func(task *sim.Task, m *mbuf.Mbuf) { badRan = true }))
	good := mustInstall(t, d, "E", nil, Proc("good", func(task *sim.Task, m *mbuf.Mbuf) { goodRan = true }))
	m := pkt(t, 0)
	var invoked int
	run(t, func(task *sim.Task) { invoked = d.Raise(task, "E", m) })
	if invoked != 1 || badRan || !goodRan {
		t.Fatalf("invoked=%d badRan=%v goodRan=%v; want panicking guard treated as reject", invoked, badRan, goodRan)
	}
	if s := bad.Stats(); s.GuardPanics != 1 || s.Invocations != 0 {
		t.Fatalf("bad stats = %+v, want GuardPanics=1 Invocations=0", s)
	}
	if s := good.Stats(); s.Invocations != 1 {
		t.Fatalf("good stats = %+v", s)
	}
}

// Dispatcher-integrity panics must NOT be contained: a handler that raises
// an undeclared event is a misbuilt graph, and the panic propagates.
func TestGraphPanicRethrownThroughContainment(t *testing.T) {
	d := NewDispatcher(DefaultCosts())
	d.MustDeclare("E", Options{})
	mustInstall(t, d, "E", nil, Proc("bad-raise", func(task *sim.Task, m *mbuf.Mbuf) {
		d.Raise(task, "NotDeclared", m)
	}))
	m := pkt(t, 0)
	run(t, func(task *sim.Task) {
		defer func() {
			if recover() == nil {
				t.Error("undeclared raise inside a handler did not propagate")
			}
		}()
		d.Raise(task, "E", m)
	})
}

func TestQuarantineAfterThreshold(t *testing.T) {
	d := NewDispatcher(DefaultCosts())
	d.SetQuarantine(QuarantinePolicy{Threshold: 3})
	d.MustDeclare("E", Options{})
	bad := mustInstall(t, d, "E", nil, Proc("bad", func(task *sim.Task, m *mbuf.Mbuf) {
		panic("always")
	}))
	var goodCount int
	mustInstall(t, d, "E", nil, Proc("good", func(task *sim.Task, m *mbuf.Mbuf) { goodCount++ }))
	m := pkt(t, 0)
	run(t, func(task *sim.Task) {
		for i := 0; i < 10; i++ {
			d.Raise(task, "E", m)
		}
	})
	if !bad.Quarantined() {
		t.Fatal("faulty binding not quarantined")
	}
	if s := bad.Stats(); s.Faults() != 3 {
		t.Fatalf("faults = %d, want exactly the threshold 3", s.Faults())
	}
	if bad.Stats().Invocations != 3 {
		t.Fatalf("invocations = %d, want 3 (no delivery after quarantine)", bad.Stats().Invocations)
	}
	if goodCount != 10 {
		t.Fatalf("good handler ran %d times, want 10", goodCount)
	}
	if n := d.HandlerCount("E"); n != 1 {
		t.Fatalf("HandlerCount = %d, want 1 after ejection", n)
	}
	h := d.Health()
	if h.Quarantined != 1 || h.Panics != 3 || h.Bindings != 1 {
		t.Fatalf("health = %+v", h)
	}
}

func TestTerminationsCountTowardQuarantine(t *testing.T) {
	d := NewDispatcher(Costs{})
	d.SetQuarantine(QuarantinePolicy{Threshold: 2})
	d.MustDeclare("E", Options{RequireEphemeral: true})
	spin, err := d.Install("E", nil, Ephemeral("spin", func(task *sim.Task, m *mbuf.Mbuf) {
		task.Charge(1 * sim.Millisecond) // models an infinite loop
	}), 10*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	m := pkt(t, 0)
	run(t, func(task *sim.Task) {
		for i := 0; i < 5; i++ {
			d.Raise(task, "E", m)
		}
	})
	if !spin.Quarantined() {
		t.Fatal("spinning binding not quarantined")
	}
	if s := spin.Stats(); s.Terminations != 2 || s.Invocations != 2 {
		t.Fatalf("stats = %+v, want Terminations=2 Invocations=2", s)
	}
}

func TestGuardOverrunRefundedAndQuarantined(t *testing.T) {
	d := NewDispatcher(Costs{})
	d.SetQuarantine(QuarantinePolicy{Threshold: 2, GuardBudget: 5 * sim.Microsecond})
	d.MustDeclare("E", Options{})
	var stolen int
	steal := mustInstall(t, d, "E",
		func(task *sim.Task, m *mbuf.Mbuf) bool {
			task.Charge(50 * sim.Microsecond) // burning CPU where guards must be cheap
			return true
		},
		Proc("steal", func(task *sim.Task, m *mbuf.Mbuf) { stolen++ }))
	m := pkt(t, 0)
	var charged sim.Time
	run(t, func(task *sim.Task) {
		d.Raise(task, "E", m)
		charged = task.Charged()
		for i := 0; i < 4; i++ {
			d.Raise(task, "E", m)
		}
	})
	// The first raise's guard evaluation is clamped to the 5µs budget.
	if charged != 5*sim.Microsecond {
		t.Fatalf("first raise charged %v, want clamped 5µs", charged)
	}
	if !steal.Quarantined() {
		t.Fatal("overrunning guard not quarantined")
	}
	if s := steal.Stats(); s.GuardOverruns != 2 {
		t.Fatalf("stats = %+v, want GuardOverruns=2", s)
	}
	// The binding matched (guard returned true) before its quarantining
	// fault, so it was still invoked on those raises — but never after.
	if stolen > 2 {
		t.Fatalf("handler ran %d times after guard overruns, want ≤2", stolen)
	}
}

func TestQuarantineDisabledByDefault(t *testing.T) {
	d := NewDispatcher(DefaultCosts())
	d.MustDeclare("E", Options{})
	bad := mustInstall(t, d, "E", nil, Proc("bad", func(task *sim.Task, m *mbuf.Mbuf) { panic("x") }))
	m := pkt(t, 0)
	run(t, func(task *sim.Task) {
		for i := 0; i < 20; i++ {
			d.Raise(task, "E", m)
		}
	})
	if bad.Quarantined() {
		t.Fatal("zero-value policy must not quarantine")
	}
	if bad.Stats().Panics != 20 {
		t.Fatalf("panics = %d, want 20 (faults still counted)", bad.Stats().Panics)
	}
}

func TestUninstallQuarantinedBinding(t *testing.T) {
	d := NewDispatcher(DefaultCosts())
	d.SetQuarantine(QuarantinePolicy{Threshold: 1})
	d.MustDeclare("E", Options{})
	bad := mustInstall(t, d, "E", nil, Proc("bad", func(task *sim.Task, m *mbuf.Mbuf) { panic("x") }))
	m := pkt(t, 0)
	run(t, func(task *sim.Task) { d.Raise(task, "E", m) })
	if !bad.Quarantined() {
		t.Fatal("not quarantined")
	}
	if d.Uninstall(bad) {
		t.Fatal("Uninstall of a quarantined binding must return false")
	}
	if !bad.removed {
		t.Fatal("uninstalled quarantined binding must still be marked removed")
	}
	if bad.Stats().Panics != 1 {
		t.Fatal("stats must stay readable after uninstall")
	}
}

// Satellite: a nonzero allotment on a non-EPHEMERAL handler must be rejected
// at install time — premature termination of an ordinary handler violates
// §3.3.
func TestAllotmentRequiresEphemeral(t *testing.T) {
	d := NewDispatcher(DefaultCosts())
	d.MustDeclare("E", Options{})
	_, err := d.Install("E", nil, Proc("plain", func(task *sim.Task, m *mbuf.Mbuf) {}), 10*sim.Microsecond)
	if !errors.Is(err, ErrAllotmentNotEphemeral) {
		t.Fatalf("err = %v, want ErrAllotmentNotEphemeral", err)
	}
	if n := d.HandlerCount("E"); n != 0 {
		t.Fatalf("rejected install left %d bindings", n)
	}
	// The legal combinations still install.
	if _, err := d.Install("E", nil, Proc("plain", func(task *sim.Task, m *mbuf.Mbuf) {}), 0); err != nil {
		t.Fatalf("non-ephemeral without allotment: %v", err)
	}
	if _, err := d.Install("E", nil, Ephemeral("eph", func(task *sim.Task, m *mbuf.Mbuf) {}), 10*sim.Microsecond); err != nil {
		t.Fatalf("ephemeral with allotment: %v", err)
	}
	if _, err := d.Install("E", nil, Ephemeral("eph0", func(task *sim.Task, m *mbuf.Mbuf) {}), -1); err == nil {
		t.Fatal("negative allotment accepted")
	}
}

// Satellite: a handler uninstalled mid-raise must not fire later in that
// same raise, even though the dispatch snapshot predates the removal.
func TestUninstallDuringRaiseSuppressesLaterHandler(t *testing.T) {
	d := NewDispatcher(DefaultCosts())
	d.MustDeclare("E", Options{})
	var victim *Binding
	var victimRan bool
	mustInstall(t, d, "E", nil, Proc("assassin", func(task *sim.Task, m *mbuf.Mbuf) {
		d.Uninstall(victim)
	}))
	victim = mustInstall(t, d, "E", nil, Proc("victim", func(task *sim.Task, m *mbuf.Mbuf) {
		victimRan = true
	}))
	m := pkt(t, 0)
	var invoked int
	run(t, func(task *sim.Task) { invoked = d.Raise(task, "E", m) })
	if victimRan {
		t.Fatal("handler fired after being uninstalled in the same raise")
	}
	if invoked != 1 {
		t.Fatalf("invoked = %d, want 1", invoked)
	}
	// The handle remains valid post-uninstall: double-uninstall is a no-op
	// and the stats snapshot stays readable.
	if d.Uninstall(victim) {
		t.Fatal("double-uninstall returned true")
	}
	if victim.Stats().Invocations != 0 {
		t.Fatal("victim stats wrong after uninstall")
	}
}

// The warm Raise path must stay allocation-free with containment wrappers
// and an active quarantine policy.
func TestRaiseWithQuarantineSteadyStateAllocs(t *testing.T) {
	d := NewDispatcher(DefaultCosts())
	d.SetQuarantine(QuarantinePolicy{Threshold: 8, GuardBudget: 100 * sim.Microsecond})
	d.MustDeclare("E", Options{})
	accept := func(task *sim.Task, m *mbuf.Mbuf) bool { return true }
	for i := 0; i < 4; i++ {
		mustInstall(t, d, "E", accept, Proc("h", func(task *sim.Task, m *mbuf.Mbuf) {}))
	}
	m := pkt(t, 9)
	run(t, func(task *sim.Task) {
		d.Raise(task, "E", m)
		avg := testing.AllocsPerRun(100, func() {
			if n := d.Raise(task, "E", m); n != 4 {
				t.Fatalf("Raise invoked %d handlers, want 4", n)
			}
		})
		if avg != 0 {
			t.Errorf("warm Raise with quarantine policy allocates %.2f/call, want 0", avg)
		}
	})
}

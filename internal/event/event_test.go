package event

import (
	"errors"
	"fmt"
	"testing"

	"plexus/internal/mbuf"
	"plexus/internal/sim"
)

// run executes fn inside a CPU task and drains the simulation.
func run(t *testing.T, fn func(task *sim.Task)) *sim.Sim {
	t.Helper()
	s := sim.New(1)
	c := sim.NewCPU(s, "cpu0")
	c.Submit(sim.PrioKernel, "test", fn)
	s.Run()
	return s
}

func pkt(t *testing.T, firstByte byte) *mbuf.Mbuf {
	t.Helper()
	m := mbuf.NewPool().FromBytes([]byte{firstByte, 2, 3, 4}, 16)
	t.Cleanup(m.Free)
	return m
}

func TestDeclareAndRaise(t *testing.T) {
	d := NewDispatcher(DefaultCosts())
	d.MustDeclare("Ethernet.PacketRecv", Options{})
	var got []byte
	_, err := d.Install("Ethernet.PacketRecv", nil, Proc("h", func(task *sim.Task, m *mbuf.Mbuf) {
		got, _ = m.CopyData(0, m.PktLen())
	}), 0)
	if err != nil {
		t.Fatal(err)
	}
	m := pkt(t, 9)
	run(t, func(task *sim.Task) {
		if n := d.Raise(task, "Ethernet.PacketRecv", m); n != 1 {
			t.Errorf("Raise invoked %d handlers, want 1", n)
		}
	})
	if len(got) != 4 || got[0] != 9 {
		t.Fatalf("handler saw %v", got)
	}
	if d.Raises("Ethernet.PacketRecv") != 1 {
		t.Error("raise count wrong")
	}
}

func TestDuplicateDeclare(t *testing.T) {
	d := NewDispatcher(DefaultCosts())
	d.MustDeclare("E", Options{})
	if err := d.Declare("E", Options{}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustDeclare on duplicate did not panic")
		}
	}()
	d.MustDeclare("E", Options{})
}

func TestInstallOnUnknownEvent(t *testing.T) {
	d := NewDispatcher(DefaultCosts())
	if _, err := d.Install("Nope", nil, Proc("h", func(*sim.Task, *mbuf.Mbuf) {}), 0); !errors.Is(err, ErrUnknownEvent) {
		t.Fatalf("err = %v, want ErrUnknownEvent", err)
	}
}

func TestNilHandlerRejected(t *testing.T) {
	d := NewDispatcher(DefaultCosts())
	d.MustDeclare("E", Options{})
	if _, err := d.Install("E", nil, Handler{Name: "nil"}, 0); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestRaiseUndeclaredPanics(t *testing.T) {
	d := NewDispatcher(DefaultCosts())
	m := pkt(t, 1)
	run(t, func(task *sim.Task) {
		defer func() {
			if recover() == nil {
				t.Error("raise of undeclared event did not panic")
			}
		}()
		d.Raise(task, "Ghost", m)
	})
}

// Guards route packets to the right handler: the paper's demultiplexing.
func TestGuardDemux(t *testing.T) {
	d := NewDispatcher(DefaultCosts())
	d.MustDeclare("IP.PacketRecv", Options{})
	var gotA, gotB int
	guardFor := func(b byte) Guard {
		return func(task *sim.Task, m *mbuf.Mbuf) bool { return m.Bytes()[0] == b }
	}
	mustInstall(t, d, "IP.PacketRecv", guardFor(1), Proc("a", func(*sim.Task, *mbuf.Mbuf) { gotA++ }))
	mustInstall(t, d, "IP.PacketRecv", guardFor(2), Proc("b", func(*sim.Task, *mbuf.Mbuf) { gotB++ }))

	m1, m2 := pkt(t, 1), pkt(t, 2)
	run(t, func(task *sim.Task) {
		d.Raise(task, "IP.PacketRecv", m1)
		d.Raise(task, "IP.PacketRecv", m2)
		d.Raise(task, "IP.PacketRecv", m2)
	})
	if gotA != 1 || gotB != 2 {
		t.Fatalf("demux wrong: a=%d b=%d", gotA, gotB)
	}
}

func mustInstall(t *testing.T, d *Dispatcher, name Name, g Guard, h Handler) *Binding {
	t.Helper()
	b, err := d.Install(name, g, h, 0)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMultipleHandlersAllInvoked(t *testing.T) {
	d := NewDispatcher(DefaultCosts())
	d.MustDeclare("E", Options{})
	count := 0
	for i := 0; i < 3; i++ {
		mustInstall(t, d, "E", nil, Proc("h", func(*sim.Task, *mbuf.Mbuf) { count++ }))
	}
	m := pkt(t, 0)
	run(t, func(task *sim.Task) {
		if n := d.Raise(task, "E", m); n != 3 {
			t.Errorf("invoked %d, want 3", n)
		}
	})
	if count != 3 {
		t.Fatalf("count = %d", count)
	}
	if d.HandlerCount("E") != 3 {
		t.Error("HandlerCount wrong")
	}
}

func TestUninstall(t *testing.T) {
	d := NewDispatcher(DefaultCosts())
	d.MustDeclare("E", Options{})
	count := 0
	b := mustInstall(t, d, "E", nil, Proc("h", func(*sim.Task, *mbuf.Mbuf) { count++ }))
	m := pkt(t, 0)
	run(t, func(task *sim.Task) {
		d.Raise(task, "E", m)
		if !d.Uninstall(b) {
			t.Error("uninstall failed")
		}
		if d.Uninstall(b) {
			t.Error("double uninstall succeeded")
		}
		d.Raise(task, "E", m)
	})
	if count != 1 {
		t.Fatalf("handler ran %d times, want 1", count)
	}
	if d.HandlerCount("E") != 0 {
		t.Error("binding still counted after uninstall")
	}
}

// The paper's §3.3 policy: a manager for an interrupt-level event rejects
// non-EPHEMERAL handlers (Figure 3's NotEphemeral case).
func TestRequireEphemeral(t *testing.T) {
	d := NewDispatcher(DefaultCosts())
	d.MustDeclare("Ethernet.PacketRecv", Options{RequireEphemeral: true})
	if _, err := d.Install("Ethernet.PacketRecv", nil,
		Proc("NotEphemeral", func(*sim.Task, *mbuf.Mbuf) {}), 0); !errors.Is(err, ErrNotEphemeral) {
		t.Fatalf("non-ephemeral handler accepted on interrupt event: %v", err)
	}
	if _, err := d.Install("Ethernet.PacketRecv", nil,
		Ephemeral("GoodHandler", func(*sim.Task, *mbuf.Mbuf) {}), 0); err != nil {
		t.Fatalf("ephemeral handler rejected: %v", err)
	}
}

// A handler exceeding its time allotment is prematurely terminated: the
// excess CPU time is refunded and the termination is counted.
func TestAllotmentTermination(t *testing.T) {
	d := NewDispatcher(Costs{}) // zero dispatch costs: isolate handler time
	d.MustDeclare("E", Options{RequireEphemeral: true})
	b, err := d.Install("E", nil, Ephemeral("slow", func(task *sim.Task, m *mbuf.Mbuf) {
		task.Charge(100 * sim.Microsecond)
	}), 10*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if b.allotment != 10*sim.Microsecond {
		t.Error("allotment not recorded")
	}
	m := pkt(t, 0)
	var charged sim.Time
	run(t, func(task *sim.Task) {
		d.Raise(task, "E", m)
		charged = task.Charged()
	})
	if charged != 10*sim.Microsecond {
		t.Fatalf("task charged %v, want clamped 10µs", charged)
	}
	if b.Stats().Terminations != 1 {
		t.Fatalf("terminations = %d, want 1", b.Stats().Terminations)
	}
}

func TestAllotmentNotExceeded(t *testing.T) {
	d := NewDispatcher(Costs{})
	d.MustDeclare("E", Options{})
	b := mustInstall(t, d, "E", nil, Ephemeral("fast", func(task *sim.Task, m *mbuf.Mbuf) {
		task.Charge(2 * sim.Microsecond)
	}))
	b.allotment = 10 * sim.Microsecond
	m := pkt(t, 0)
	run(t, func(task *sim.Task) { d.Raise(task, "E", m) })
	if b.Stats().Terminations != 0 {
		t.Fatal("fast handler terminated")
	}
	if b.Stats().Invocations != 1 {
		t.Fatal("invocation not counted")
	}
}

// Dispatch must charge the raising task: guards cost an evaluation each,
// handlers an invocation each.
func TestDispatchCostAccounting(t *testing.T) {
	costs := Costs{GuardEval: 200 * sim.Nanosecond, Invoke: 1 * sim.Microsecond}
	d := NewDispatcher(costs)
	d.MustDeclare("E", Options{})
	accept := func(*sim.Task, *mbuf.Mbuf) bool { return true }
	reject := func(*sim.Task, *mbuf.Mbuf) bool { return false }
	mustInstall(t, d, "E", accept, Proc("a", func(*sim.Task, *mbuf.Mbuf) {}))
	mustInstall(t, d, "E", reject, Proc("b", func(*sim.Task, *mbuf.Mbuf) {}))
	mustInstall(t, d, "E", nil, Proc("c", func(*sim.Task, *mbuf.Mbuf) {}))
	m := pkt(t, 0)
	var charged sim.Time
	run(t, func(task *sim.Task) {
		d.Raise(task, "E", m)
		charged = task.Charged()
	})
	want := 2*costs.GuardEval + 2*costs.Invoke // two guards evaluated, a and c invoked
	if charged != want {
		t.Fatalf("charged %v, want %v", charged, want)
	}
}

func TestGuardRejectStats(t *testing.T) {
	d := NewDispatcher(DefaultCosts())
	d.MustDeclare("E", Options{})
	b := mustInstall(t, d, "E", func(*sim.Task, *mbuf.Mbuf) bool { return false },
		Proc("h", func(*sim.Task, *mbuf.Mbuf) {}))
	m := pkt(t, 0)
	run(t, func(task *sim.Task) {
		d.Raise(task, "E", m)
		d.Raise(task, "E", m)
	})
	if b.Stats().GuardRejects != 2 || b.Stats().Invocations != 0 {
		t.Fatalf("stats = %+v", b.Stats())
	}
}

// Handlers installed during a raise take effect on the next raise only.
func TestInstallDuringDispatch(t *testing.T) {
	d := NewDispatcher(DefaultCosts())
	d.MustDeclare("E", Options{})
	var second int
	mustInstall(t, d, "E", nil, Proc("installer", func(task *sim.Task, m *mbuf.Mbuf) {
		if d.HandlerCount("E") == 1 {
			mustInstall(t, d, "E", nil, Proc("late", func(*sim.Task, *mbuf.Mbuf) { second++ }))
		}
	}))
	m := pkt(t, 0)
	run(t, func(task *sim.Task) {
		if n := d.Raise(task, "E", m); n != 1 {
			t.Errorf("first raise invoked %d", n)
		}
		if n := d.Raise(task, "E", m); n != 2 {
			t.Errorf("second raise invoked %d", n)
		}
	})
	if second != 1 {
		t.Fatalf("late handler ran %d times", second)
	}
}

// A cyclic protocol graph (event A raising itself) is detected rather than
// hanging the simulation.
func TestRaiseCycleDetected(t *testing.T) {
	d := NewDispatcher(DefaultCosts())
	d.MustDeclare("Loop", Options{})
	var raise func(task *sim.Task, m *mbuf.Mbuf)
	raise = func(task *sim.Task, m *mbuf.Mbuf) { d.Raise(task, "Loop", m) }
	mustInstall(t, d, "Loop", nil, Proc("loop", func(task *sim.Task, m *mbuf.Mbuf) { raise(task, m) }))
	m := pkt(t, 0)
	run(t, func(task *sim.Task) {
		defer func() {
			if recover() == nil {
				t.Error("cyclic raise did not panic")
			}
		}()
		d.Raise(task, "Loop", m)
	})
}

func TestDeclaredAndHandlerAccessors(t *testing.T) {
	d := NewDispatcher(DefaultCosts())
	d.MustDeclare("E", Options{})
	if d.events["E"] == nil || d.events["F"] != nil {
		t.Error("Declared wrong")
	}
	h := Ephemeral("x", func(*sim.Task, *mbuf.Mbuf) {})
	b := mustInstall(t, d, "E", nil, h)
	if b.name != "x" {
		t.Error("Handler accessor wrong")
	}
	if d.Raises("F") != 0 || d.HandlerCount("F") != 0 {
		t.Error("unknown-event accessors should return zero")
	}
	if d.Uninstall(nil) {
		t.Error("Uninstall(nil) returned true")
	}
}

// Two-phase dispatch: every guard is evaluated against the intact packet
// before ANY handler runs, so a consuming handler cannot corrupt the view a
// later guard sees (the exact bug class this property prevents in the
// protocol graph).
func TestGuardsEvaluateBeforeHandlers(t *testing.T) {
	d := NewDispatcher(DefaultCosts())
	d.MustDeclare("E", Options{})
	var order []string
	mustInstall(t, d, "E", func(*sim.Task, *mbuf.Mbuf) bool {
		order = append(order, "guard1")
		return true
	}, Proc("h1", func(*sim.Task, *mbuf.Mbuf) { order = append(order, "handler1") }))
	mustInstall(t, d, "E", func(*sim.Task, *mbuf.Mbuf) bool {
		order = append(order, "guard2")
		return true
	}, Proc("h2", func(*sim.Task, *mbuf.Mbuf) { order = append(order, "handler2") }))
	m := pkt(t, 0)
	run(t, func(task *sim.Task) { d.Raise(task, "E", m) })
	want := []string{"guard1", "guard2", "handler1", "handler2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// DefaultCosts matches the paper's "roughly one procedure call" story:
// guard evaluation well under handler invocation, both far under protocol
// processing scale.
func TestDefaultCostsShape(t *testing.T) {
	c := DefaultCosts()
	if c.GuardEval <= 0 || c.Invoke <= 0 {
		t.Fatal("zero default costs")
	}
	if c.GuardEval >= c.Invoke {
		t.Error("guard evaluation should cost less than handler invocation")
	}
	if c.Invoke > 5*sim.Microsecond {
		t.Error("handler invocation should stay at procedure-call scale")
	}
}

// TestRaiseSteadyStateAllocs pins the zero-alloc property of dispatch: on a
// warm dispatcher (scratch snapshot buffer grown), Raise allocates nothing
// per call, whether closure and keyed guards mix and accept or reject, or
// one run holds 4,096 keyed bindings and the raise hits, misses or carries no
// key.
func TestRaiseSteadyStateAllocs(t *testing.T) {
	nop := func(*sim.Task, *mbuf.Mbuf) {}
	cases := []struct {
		name    string
		install func(d *Dispatcher) error
		raises  map[byte]int // a packet's first byte → handlers it invokes
	}{
		{"mixed closure and keyed guards", func(d *Dispatcher) error {
			accept := func(task *sim.Task, m *mbuf.Mbuf) bool { return m.Bytes()[0] == 9 }
			reject := func(task *sim.Task, m *mbuf.Mbuf) bool { return m.Bytes()[0] != 9 }
			for i := 0; i < 4; i++ {
				if _, err := d.Install("E", accept, Proc("hit", nop), 0); err != nil {
					return err
				}
				if _, err := d.Install("E", reject, Proc("miss", nop), 0); err != nil {
					return err
				}
				// Four runs of two; only the first run's key 9 hits.
				for _, key := range []Key{Key(9 + 2*i), Key(10 + 2*i)} {
					if _, err := d.InstallKey("E", key, Proc("keyed", nop), 0); err != nil {
						return err
					}
				}
			}
			return nil
		}, map[byte]int{9: 5}},
		{"4096 keyed bindings in one run", func(d *Dispatcher) error {
			for i := 0; i < 4096; i++ {
				// The even keys 0..8190: 8 hits, 7 misses and 0xff has
				// no key.
				if _, err := d.InstallKey("E", Key(2*i), Proc("keyed", nop), 0); err != nil {
					return err
				}
			}
			return nil
		}, map[byte]int{8: 1, 7: 0, 0xff: 0}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := NewDispatcher(DefaultCosts())
			d.MustDeclare("E", Options{Key: firstByteKey})
			if err := c.install(d); err != nil {
				t.Fatal(err)
			}
			for first, want := range c.raises {
				m := pkt(t, first)
				run(t, func(task *sim.Task) {
					d.Raise(task, "E", m) // warm: grows the scratch buffer once
					avg := testing.AllocsPerRun(100, func() {
						if n := d.Raise(task, "E", m); n != want {
							t.Fatalf("Raise of %#x invoked %d handlers, want %d", first, n, want)
						}
					})
					if avg != 0 {
						t.Errorf("warm Raise of %#x allocates %.2f/call, want 0", first, avg)
					}
				})
			}
		})
	}
}

// TestDeclareInstallAllocs pins what an event without keyed bindings costs
// to set up: declaring it and installing 8 closure bindings allocates 13
// times — the event's state, the 8 bindings and 4 growths of its dispatch
// list — as it did before keyed runs existed. A run's entry and index are
// paid only by events that install keyed bindings.
func TestDeclareInstallAllocs(t *testing.T) {
	d := NewDispatcher(DefaultCosts())
	d.events = make(map[Name]*Ref, 256) // declaring grows no map
	names := make([]Name, 101)
	for i := range names {
		names[i] = Name(fmt.Sprintf("E%d", i))
	}
	h := Proc("h", func(*sim.Task, *mbuf.Mbuf) {})
	accept := func(*sim.Task, *mbuf.Mbuf) bool { return true }
	next := 0
	avg := testing.AllocsPerRun(100, func() {
		name := names[next]
		next++
		d.MustDeclare(name, Options{})
		for i := 0; i < 8; i++ {
			if _, err := d.Install(name, accept, h, 0); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg != 13 {
		t.Errorf("declaring an event and installing 8 closure bindings allocates %v times, want 13", avg)
	}
}

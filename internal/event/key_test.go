package event

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"plexus/internal/mbuf"
	"plexus/internal/sim"
)

// firstByteKey is the test events' key extractor: a packet's exact key is
// its first byte and its wildcard key 0x80 or 0x81, by the byte's parity; a
// packet starting with 0xff has no key.
func firstByteKey(m *mbuf.Mbuf) (exact, wild Key, ok bool) {
	b := m.Bytes()[0]
	return Key(b), Key(0x80 | b&1), b != 0xff
}

// keyGuard is the closure guard equivalent to a keyed binding on key, where
// no binding holds a wildcard key.
func keyGuard(key Key) Guard {
	return func(_ *sim.Task, m *mbuf.Mbuf) bool {
		k, _, ok := firstByteKey(m)
		return ok && k == key
	}
}

// sample is one recorded CPU attribution.
type sample struct {
	kind       sim.ProfKind
	owner      string
	start, dur sim.Time
}

// recorder is a sim.Metrics that keeps every CPU sample.
type recorder struct{ samples []sample }

func (r *recorder) Hop(uint64, sim.Time, string, string, string, int) {}
func (r *recorder) QueueDepth(string, int)                            {}
func (r *recorder) Sample(_ string, kind sim.ProfKind, owner string, _ sim.Priority, start, dur sim.Time) {
	r.samples = append(r.samples, sample{kind, owner, start, dur})
}

// runRecorded is run with a recording metrics sink installed.
func runRecorded(fn func(task *sim.Task)) *recorder {
	r := &recorder{}
	s := sim.New(1)
	s.SetMetrics(r)
	sim.NewCPU(s, "cpu0").Submit(sim.PrioKernel, "test", fn)
	s.Run()
	return r
}

// A keyed binding is a guard whose body is a compare: everything else about
// it — order, charging, counting, uninstall and quarantine — is a closure
// guard's.
func TestKeyedBindings(t *testing.T) {
	nop := func(*sim.Task, *mbuf.Mbuf) {}
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"keyed and closure bindings fire in install order", func(t *testing.T) {
			d := NewDispatcher(DefaultCosts())
			calls := 0
			d.MustDeclare("E", Options{Key: func(m *mbuf.Mbuf) (Key, Key, bool) {
				calls++
				return firstByteKey(m)
			}})
			var order []string
			for _, b := range []struct {
				name  string
				keyed bool
				key   Key
			}{{"closure1", false, 7}, {"keyed2", true, 7}, {"keyed-other", true, 8}, {"closure3", false, 7}, {"keyed4", true, 9}, {"closure5", false, 7}} {
				name := b.name
				h := Proc(name, func(*sim.Task, *mbuf.Mbuf) { order = append(order, name) })
				var err error
				if b.keyed {
					_, err = d.InstallKey("E", b.key, h, 0)
				} else {
					_, err = d.Install("E", keyGuard(b.key), h, 0)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			m := pkt(t, 7)
			run(t, func(task *sim.Task) {
				if n := d.Raise(task, "E", m); n != 4 {
					t.Errorf("Raise invoked %d handlers, want 4", n)
				}
			})
			want := []string{"closure1", "keyed2", "closure3", "closure5"}
			if len(order) != len(want) {
				t.Fatalf("order = %v, want %v", order, want)
			}
			for i := range want {
				if order[i] != want[i] {
					t.Fatalf("order = %v, want %v", order, want)
				}
			}
			if calls != 1 {
				t.Errorf("key extracted %d times in one raise, want 1", calls)
			}
		}},
		{"keyed and closure guards charge and count identically", func(t *testing.T) {
			build := func(keyed bool) (*Dispatcher, []*Binding) {
				d := NewDispatcher(DefaultCosts())
				d.MustDeclare("E", Options{Key: firstByteKey})
				var bs []*Binding
				for _, key := range []Key{1, 2, 3, 0xff} {
					h := Proc("h", func(task *sim.Task, _ *mbuf.Mbuf) { task.Charge(3 * sim.Microsecond) })
					var b *Binding
					var err error
					if keyed {
						b, err = d.InstallKey("E", key, h, 0)
					} else {
						b, err = d.Install("E", keyGuard(key), h, 0)
					}
					if err != nil {
						t.Fatal(err)
					}
					bs = append(bs, b)
				}
				return d, bs
			}
			raises := []*mbuf.Mbuf{pkt(t, 1), pkt(t, 2), pkt(t, 0xff), pkt(t, 3), pkt(t, 1)}
			trace := func(keyed bool) ([]sample, []BindingStats) {
				d, bs := build(keyed)
				r := runRecorded(func(task *sim.Task) {
					for _, m := range raises {
						d.Raise(task, "E", m)
					}
				})
				var stats []BindingStats
				for _, b := range bs {
					stats = append(stats, b.Stats())
				}
				return r.samples, stats
			}
			closureSamples, closureStats := trace(false)
			keyedSamples, keyedStats := trace(true)
			if len(keyedSamples) != len(closureSamples) || len(keyedSamples) == 0 {
				t.Fatalf("%d keyed samples, %d closure samples", len(keyedSamples), len(closureSamples))
			}
			dispatch := 0
			for i := range keyedSamples {
				if keyedSamples[i] != closureSamples[i] {
					t.Fatalf("sample %d: keyed %+v, closure %+v", i, keyedSamples[i], closureSamples[i])
				}
				if keyedSamples[i].kind == sim.ProfDispatch {
					dispatch++
				}
			}
			if dispatch == 0 {
				t.Fatal("no ProfDispatch samples recorded")
			}
			for i := range keyedStats {
				if keyedStats[i] != closureStats[i] {
					t.Errorf("binding %d: keyed %+v, closure %+v", i, keyedStats[i], closureStats[i])
				}
			}
		}},
		{"InstallKey on an event without a key fails", func(t *testing.T) {
			d := NewDispatcher(DefaultCosts())
			d.MustDeclare("E", Options{})
			if _, err := d.InstallKey("E", 1, Proc("h", nop), 0); !errors.Is(err, ErrNoKey) {
				t.Fatalf("err = %v, want ErrNoKey", err)
			}
			if n := d.HandlerCount("E"); n != 0 {
				t.Fatalf("HandlerCount = %d after a failed install, want 0", n)
			}
		}},
		{"a keyed binding uninstalled earlier in the raise does not fire", func(t *testing.T) {
			d := NewDispatcher(DefaultCosts())
			d.MustDeclare("E", Options{Key: firstByteKey})
			var victim *Binding
			victimRan := false
			mustInstall(t, d, "E", nil, Proc("assassin", func(*sim.Task, *mbuf.Mbuf) { d.Uninstall(victim) }))
			victim, err := d.InstallKey("E", 5, Proc("victim", func(*sim.Task, *mbuf.Mbuf) { victimRan = true }), 0)
			if err != nil {
				t.Fatal(err)
			}
			m := pkt(t, 5)
			var invoked int
			run(t, func(task *sim.Task) { invoked = d.Raise(task, "E", m) })
			if victimRan || invoked != 1 {
				t.Fatalf("victimRan=%v invoked=%d, want false and 1", victimRan, invoked)
			}
		}},
		{"InstallKey on a bound key fails and leaves dispatch unchanged", func(t *testing.T) {
			d := NewDispatcher(DefaultCosts())
			d.MustDeclare("E", Options{Key: firstByteKey})
			var ran []string
			for _, name := range []string{"owner", "intruder"} {
				_, err := d.InstallKey("E", 5, Proc(name, func(*sim.Task, *mbuf.Mbuf) { ran = append(ran, name) }), 0)
				if want := map[string]error{"owner": nil, "intruder": ErrKeyBound}[name]; !errors.Is(err, want) {
					t.Fatalf("InstallKey %s: err = %v, want %v", name, err, want)
				}
			}
			if n := d.HandlerCount("E"); n != 1 {
				t.Fatalf("HandlerCount = %d after a refused install, want 1", n)
			}
			m := pkt(t, 5)
			run(t, func(task *sim.Task) {
				if n := d.Raise(task, "E", m); n != 1 {
					t.Errorf("Raise invoked %d handlers, want 1", n)
				}
				if c := DefaultCosts(); task.Charged() != c.GuardEval+c.Invoke {
					t.Errorf("raise charged %v, want one guard and one invocation", task.Charged())
				}
			})
			if len(ran) != 1 || ran[0] != "owner" {
				t.Fatalf("ran %v, want [owner]", ran)
			}
		}},
		{"a key is free again after Uninstall", func(t *testing.T) {
			d := NewDispatcher(DefaultCosts())
			d.MustDeclare("E", Options{Key: firstByteKey})
			ref := d.Ref("E")
			first, err := d.InstallKey("E", 5, Proc("first", nop), 0)
			if err != nil {
				t.Fatal(err)
			}
			if !d.Uninstall(first) || ref.Bound(5) {
				t.Fatalf("after Uninstall: Bound(5) = %v, want false", ref.Bound(5))
			}
			again := false
			if _, err := d.InstallKey("E", 5, Proc("again", func(*sim.Task, *mbuf.Mbuf) { again = true }), 0); err != nil {
				t.Fatalf("InstallKey of a freed key: %v", err)
			}
			m := pkt(t, 5)
			run(t, func(task *sim.Task) { d.Raise(task, "E", m) })
			if !again || !ref.Bound(5) {
				t.Fatalf("reinstalled binding ran %v, Bound(5) = %v; want true, true", again, ref.Bound(5))
			}
		}},
		{"a quarantined binding keeps its key until Uninstall", func(t *testing.T) {
			d := NewDispatcher(DefaultCosts())
			d.SetQuarantine(QuarantinePolicy{Threshold: 1})
			d.MustDeclare("E", Options{Key: firstByteKey})
			ref := d.Ref("E")
			rogue, err := d.InstallKey("E", 4, Proc("rogue", func(*sim.Task, *mbuf.Mbuf) { panic("rogue handler") }), 0)
			if err != nil {
				t.Fatal(err)
			}
			m := pkt(t, 4)
			run(t, func(task *sim.Task) { d.Raise(task, "E", m) })
			if !rogue.Quarantined() || d.HandlerCount("E") != 0 {
				t.Fatalf("quarantined %v, HandlerCount %d; want true, 0", rogue.Quarantined(), d.HandlerCount("E"))
			}
			if !ref.Bound(4) {
				t.Fatal("a quarantined binding's key is free before Uninstall")
			}
			if _, err := d.InstallKey("E", 4, Proc("h", nop), 0); !errors.Is(err, ErrKeyBound) {
				t.Fatalf("InstallKey of a quarantined binding's key: err = %v, want ErrKeyBound", err)
			}
			if d.Uninstall(rogue) || ref.Bound(4) {
				t.Fatalf("Uninstall of a quarantined binding: Bound(4) = %v, want false", ref.Bound(4))
			}
			if _, err := d.InstallKey("E", 4, Proc("h", nop), 0); err != nil {
				t.Fatalf("InstallKey after Uninstall: %v", err)
			}
		}},
		{"Bound sees keys across several runs", func(t *testing.T) {
			d := NewDispatcher(DefaultCosts())
			d.MustDeclare("E", Options{Key: firstByteKey})
			ref := d.Ref("E")
			var bs []*Binding
			for _, key := range []Key{1, 2, 3} {
				b, err := d.InstallKey("E", key, Proc("keyed", nop), 0)
				if err != nil {
					t.Fatal(err)
				}
				bs = append(bs, b)
				mustInstall(t, d, "E", keyGuard(9), Proc("closure", nop)) // ends the run
			}
			for key, want := range map[Key]bool{1: true, 2: true, 3: true, 4: false} {
				if ref.Bound(key) != want {
					t.Errorf("Bound(%d) = %v, want %v", key, !want, want)
				}
			}
			d.Uninstall(bs[1]) // empties the middle run
			for key, want := range map[Key]bool{1: true, 2: false, 3: true} {
				if ref.Bound(key) != want {
					t.Errorf("after Uninstall: Bound(%d) = %v, want %v", key, !want, want)
				}
			}
			m := pkt(t, 3)
			run(t, func(task *sim.Task) {
				if n := d.Raise(task, "E", m); n != 1 {
					t.Errorf("Raise of key 3 invoked %d handlers, want 1", n)
				}
			})
			if s := bs[2].Stats(); s.Invocations != 1 || s.GuardRejects != 0 {
				t.Fatalf("last run's binding %+v, want one invocation and no reject", s)
			}
		}},
		{"an exact key shadows a wildcard key", func(t *testing.T) {
			d := NewDispatcher(DefaultCosts())
			d.MustDeclare("E", Options{Key: firstByteKey})
			var ran []string
			for _, b := range []struct {
				name string
				key  Key
			}{{"wild-even", 0x80}, {"exact-2", 2}} {
				name := b.name
				if _, err := d.InstallKey("E", b.key, Proc(name, func(*sim.Task, *mbuf.Mbuf) { ran = append(ran, name) }), 0); err != nil {
					t.Fatal(err)
				}
			}
			for _, c := range []struct {
				first byte
				want  string
			}{{2, "exact-2"}, {4, "wild-even"}, {0x80, "wild-even"}, {3, ""}, {0xff, ""}} {
				ran = nil
				m := pkt(t, c.first)
				run(t, func(task *sim.Task) {
					d.Raise(task, "E", m)
					if costs := DefaultCosts(); task.Charged() != 2*costs.GuardEval+sim.Time(len(ran))*costs.Invoke {
						t.Errorf("raise charged %v for %d invocations", task.Charged(), len(ran))
					}
				})
				if got := strings.Join(ran, ","); got != c.want {
					t.Errorf("raise of %#x ran %q, want %q", c.first, got, c.want)
				}
			}
		}},
		{"AddKey gives a binding more keys, and Uninstall frees them all", func(t *testing.T) {
			d := NewDispatcher(DefaultCosts())
			d.MustDeclare("E", Options{Key: firstByteKey})
			ref := d.Ref("E")
			calls := 0
			b, err := d.InstallKey("E", 1, Proc("multi", func(*sim.Task, *mbuf.Mbuf) { calls++ }), 0)
			if err != nil {
				t.Fatal(err)
			}
			other, err := d.InstallKey("E", 2, Proc("other", nop), 0)
			if err != nil {
				t.Fatal(err)
			}
			closure := mustInstall(t, d, "E", nil, Proc("closure", nop))
			for _, c := range []struct {
				b    *Binding
				key  Key
				want error
			}{{b, 3, nil}, {b, 0x81, nil}, {b, 2, ErrKeyBound}, {other, 3, ErrKeyBound}, {closure, 4, ErrNoKey}} {
				if err := d.AddKey(c.b, c.key); !errors.Is(err, c.want) {
					t.Fatalf("AddKey(%d) = %v, want %v", c.key, err, c.want)
				}
			}
			if n := d.HandlerCount("E"); n != 3 {
				t.Fatalf("HandlerCount = %d, want 3: AddKey installs no binding", n)
			}
			for _, first := range []byte{1, 3, 5, 2} {
				m := pkt(t, first)
				run(t, func(task *sim.Task) { d.Raise(task, "E", m) })
			}
			if s := b.Stats(); calls != 3 || s.Invocations != 3 || s.GuardRejects != 1 {
				t.Fatalf("multi-key binding ran %d times, stats %+v; want 3 invocations and 1 reject", calls, s)
			}
			d.Uninstall(b)
			for key, want := range map[Key]bool{1: false, 3: false, 0x81: false, 2: true} {
				if ref.Bound(key) != want {
					t.Errorf("after Uninstall: Bound(%#x) = %v, want %v", key, !want, want)
				}
			}
			if err := d.AddKey(b, 7); !errors.Is(err, ErrNoKey) {
				t.Fatalf("AddKey on an uninstalled binding = %v, want ErrNoKey", err)
			}
		}},
		{"eight keys are scanned, the ninth makes the index", func(t *testing.T) {
			d := NewDispatcher(DefaultCosts())
			d.MustDeclare("E", Options{Key: firstByteKey})
			ref := d.Ref("E")
			var bs []*Binding
			for key := Key(1); key <= 9; key++ {
				if key == 5 {
					mustInstall(t, d, "E", keyGuard(0), Proc("closure", nop)) // a second run
				}
				b, err := d.InstallKey("E", key, Proc("keyed", nop), 0)
				if err != nil {
					t.Fatal(err)
				}
				bs = append(bs, b)
				if indexed := ref.index != nil; indexed != (key == 9) {
					t.Fatalf("%d keys: index made %v", key, indexed)
				}
			}
			for key := Key(0); key <= 10; key++ {
				if want := key >= 1 && key <= 9; ref.Bound(key) != want {
					t.Errorf("Bound(%d) = %v, want %v", key, !want, want)
				}
			}
			for i, b := range bs {
				m := pkt(t, byte(i+1))
				run(t, func(task *sim.Task) { d.Raise(task, "E", m) })
				if b.Stats().Invocations != 1 {
					t.Fatalf("key %d's binding ran %d times, want 1", i+1, b.Stats().Invocations)
				}
			}
		}},
		{"quarantine ejects keyed and closure bindings at one threshold", func(t *testing.T) {
			d := NewDispatcher(DefaultCosts())
			d.SetQuarantine(QuarantinePolicy{Threshold: 3})
			d.MustDeclare("E", Options{Key: firstByteKey})
			rogue := Proc("rogue", func(*sim.Task, *mbuf.Mbuf) { panic("rogue handler") })
			keyed, err := d.InstallKey("E", 4, rogue, 0)
			if err != nil {
				t.Fatal(err)
			}
			closure := mustInstall(t, d, "E", keyGuard(4), rogue)
			m := pkt(t, 4)
			run(t, func(task *sim.Task) {
				for i := 0; i < 10; i++ {
					d.Raise(task, "E", m)
				}
			})
			for _, b := range []*Binding{keyed, closure} {
				if !b.Quarantined() {
					t.Fatalf("binding %+v not quarantined", b.Stats())
				}
			}
			if ks, cs := keyed.Stats(), closure.Stats(); ks != cs || ks.Faults() != 3 {
				t.Fatalf("keyed %+v, closure %+v; want identical with 3 faults", ks, cs)
			}
			if n := d.HandlerCount("E"); n != 0 {
				t.Fatalf("HandlerCount = %d after ejection, want 0", n)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// FuzzKeyedAgreesWithClosure is differential: a script of installs,
// uninstalls, added keys and raises plays once with keyed bindings, which
// the dispatcher gathers into runs, and once with every keyed binding
// installed as its equivalent closure guard, which is the ordered scan.
// Keys are exact (0..9) or wildcard (0x80, 0x81), so bindings shadow one
// another, and past eight keys the event makes its index. Handlers charge,
// uninstall, install, panic into quarantine and raise again. With and
// without a metrics sink, the two plays must agree on every invocation and
// return value, the charge after every raise, every sample, and at the end
// every binding's stats, HandlerCount and Health.
//
// The closure play keeps the script's own record of held keys, which
// Uninstall frees and quarantine does not: its keyed guards accept what the
// holder of a packet's exact key, else of its wildcard key, would, and it
// refuses what InstallKey and AddKey must.
//
// A script is a sequence of operations, each an opcode byte and its
// arguments (see the opcodes); the seeds hit held keys, an emptied run, a
// closure between two runs, a run emptied mid-raise, quarantine, shadowed
// wildcards, multi-key bindings and the index.
func FuzzKeyedAgreesWithClosure(f *testing.F) {
	keyed := func(key, behavior, param byte) []byte { return []byte{opKeyed, key, behavior, param} }
	closure := func(variant, key, behavior, param byte) []byte {
		return []byte{opClosure, variant, key, behavior, param}
	}
	uninstall := func(j byte) []byte { return []byte{opUninstall, j} }
	raise := func(p byte) []byte { return []byte{opRaise, p} }
	addKey := func(j, key byte) []byte { return []byte{opAddKey, j, key} }
	for _, seed := range [][][]byte{
		// held keys refused within one run, a hit, a miss and no key
		{keyed(1, doCharge, 1), keyed(1, doCharge, 2), keyed(2, doCharge, 3), keyed(1, doCharge, 0),
			closure(guardNone, 0, doCharge, 1), raise(1), raise(2), raise(3), raise(4)},
		// a run emptied between raises, then refilled
		{keyed(1, doCharge, 1), keyed(2, doCharge, 1), raise(1), uninstall(0), uninstall(1), raise(1),
			keyed(1, doCharge, 2), raise(1), raise(2)},
		// a closure between two runs, then uninstalled; a held key refused
		// in the second run, and free again once its binding is uninstalled
		{keyed(1, doCharge, 1), keyed(2, doCharge, 1), closure(guardKey, 1, doCharge, 2), keyed(0, doCharge, 3),
			keyed(3, doCharge, 1), raise(1), uninstall(2), keyed(1, doCharge, 1), raise(1), raise(3),
			uninstall(0), keyed(1, doCharge, 2), raise(1)},
		// a run emptied mid-raise, by its hit uninstalling itself and a
		// closure uninstalling the other member, then a keyed install of the
		// freed key and a nested raise in the same raise
		{keyed(1, doUninstall, 0), keyed(2, doCharge, 1), closure(guardNone, 0, doUninstall, 1),
			closure(guardNone, 0, doInstall, 1<<2|1), closure(guardNone, 0, doRaise, 0), raise(1), raise(1), raise(2)},
		// handler and guard panics into quarantine at threshold 2; the
		// quarantined binding's key stays held until its Uninstall
		{keyed(1, doPanic, 0), closure(guardPanic, 1, doCharge, 1), keyed(1, doCharge, 1), keyed(2, doPanic, 0),
			raise(1), raise(2), raise(1), raise(2), raise(1), raise(4), keyed(1, doCharge, 1), uninstall(0),
			keyed(1, doCharge, 1), raise(1)},
		// a wildcard shadowed by exact keys, one of them added to another
		// binding, which the wildcard's holder then loses to Uninstall
		{keyed(10, doCharge, 1), keyed(2, doCharge, 2), closure(guardNone, 0, doCharge, 3), keyed(11, doCharge, 1),
			addKey(1, 4), addKey(0, 4), addKey(2, 6), raise(0), raise(2), raise(4), raise(6), raise(3),
			uninstall(1), raise(2), raise(4), addKey(1, 4), raise(10)},
		// nine keys make the index mid-script; a quarantined wildcard
		// holder keeps shadowing until its Uninstall
		{keyed(0, doCharge, 1), keyed(1, doCharge, 1), keyed(2, doCharge, 1), keyed(3, doCharge, 1),
			keyed(10, doPanic, 0), keyed(5, doCharge, 1), keyed(6, doCharge, 1), raise(8), raise(8), raise(8),
			keyed(7, doCharge, 1), keyed(9, doCharge, 1), keyed(11, doCharge, 1), raise(4), raise(8),
			uninstall(4), raise(8), keyed(10, doCharge, 2), raise(8), raise(9)},
	} {
		f.Add(slices.Concat(seed...))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > maxScriptLen {
			script = script[:maxScriptLen]
		}
		for _, sink := range []bool{false, true} {
			k, c := playScript(t, script, true, sink), playScript(t, script, false, sink)
			if i := firstDiff(k.log, c.log); i >= 0 {
				t.Fatalf("sink=%v: step %d: keyed %q, closure %q", sink, i, at(k.log, i), at(c.log, i))
			}
			if i := firstDiff(k.samples, c.samples); i >= 0 {
				t.Fatalf("sink=%v: sample %d: keyed %+v, closure %+v", sink, i, at(k.samples, i), at(c.samples, i))
			}
			if i := firstDiff(k.bindings, c.bindings); i >= 0 {
				t.Fatalf("sink=%v: binding %d: keyed %+v, closure %+v", sink, i, at(k.bindings, i), at(c.bindings, i))
			}
			if k.handlers != c.handlers || k.health != c.health {
				t.Fatalf("sink=%v: keyed %d handlers %+v, closure %d handlers %+v", sink, k.handlers, k.health, c.handlers, c.health)
			}
		}
	})
}

// Script opcodes, with their argument bytes.
const (
	opKeyed     = iota // key, behavior, param: a keyed binding
	opClosure          // variant, key, behavior, param: a closure-guarded binding
	opUninstall        // j: uninstall the j-th binding installed
	opRaise            // p: raise the p-th test packet
	opAddKey           // j, key: AddKey to the j-th binding installed
	numOps
)

// Closure guard variants.
const (
	guardNone  = iota // unguarded
	guardKey          // keyGuard(key)
	guardPanic        // panics on key, rejects anything else
	numGuards
)

// Handler behaviors; param is the behavior's argument.
const (
	doCharge    = iota // charge param%4 µs
	doUninstall        // uninstall the param-th binding installed
	doInstall          // install a keyed binding on key param behaving as param>>2
	doPanic            // panic
	doRaise            // raise the packet again, at depth ≤ 2
	numBehaviors
)

// Bounds on one script, so that nested raises over many bindings keep an
// execution short: its length in bytes and the bindings it installs.
const (
	maxScriptLen      = 256
	maxScriptBindings = 24
)

// play is one play of a script: the observables the two plays compare.
type play struct {
	log      []string
	samples  []sample
	bindings []bindingEnd
	handlers int
	health   Health
}

// bindingEnd is a binding's state at the end of a play.
type bindingEnd struct {
	Stats       BindingStats
	Quarantined bool
}

// scriptWorld is the dispatcher and bindings one play drives.
type scriptWorld struct {
	d     *Dispatcher
	keyed bool // keyed installs use InstallKey, else keyGuard
	bs    []*Binding
	held  map[Key]*Binding  // each key a keyed binding holds, to its binding
	keyB  map[*Binding]bool // the keyed installs
	depth int
	log   []string
}

// playScript plays script on a fresh dispatcher, keyed or as closures, with
// or without a recording metrics sink.
func playScript(t *testing.T, script []byte, keyed, sink bool) play {
	w := &scriptWorld{d: NewDispatcher(DefaultCosts()), keyed: keyed, held: map[Key]*Binding{}, keyB: map[*Binding]bool{}}
	w.d.SetQuarantine(QuarantinePolicy{Threshold: 2})
	w.d.MustDeclare("E", Options{Key: firstByteKey, NoMatch: func(*sim.Task, *mbuf.Mbuf) {
		w.log = append(w.log, "no match")
	}})
	pkts := []*mbuf.Mbuf{pkt(t, 0xff)}
	for b := byte(0); b < 10; b++ {
		pkts = append(pkts, pkt(t, b))
	}
	body := func(task *sim.Task) {
		for i := 0; i < len(script); {
			arg := func(n int) byte {
				if i+n < len(script) {
					return script[i+n]
				}
				return 0
			}
			switch script[i] % numOps {
			case opKeyed:
				w.install(guardKey, true, scriptKey(arg(1)), arg(2), arg(3))
				i += 4
			case opClosure:
				w.install(arg(1)%numGuards, false, scriptKey(arg(2)), arg(3), arg(4))
				i += 5
			case opUninstall:
				w.uninstall(arg(1))
				i += 2
			case opRaise:
				w.raise(task, pkts[int(arg(1))%len(pkts)])
				i += 2
			case opAddKey:
				w.addKey(arg(1), scriptKey(arg(2)))
				i += 3
			}
		}
	}
	var p play
	if sink {
		p.samples = runRecorded(body).samples
	} else {
		run(t, body)
	}
	p.log = w.log
	for _, b := range w.bs {
		p.bindings = append(p.bindings, bindingEnd{b.Stats(), b.Quarantined()})
	}
	p.handlers, p.health = w.d.HandlerCount("E"), w.d.Health()
	return p
}

// scriptKey is the key a script byte names: 0..9 exact, 10 and 11 the
// wildcards 0x80 and 0x81.
func scriptKey(arg byte) Key {
	if k := Key(arg % 12); k < 10 {
		return k
	}
	return 0x80 | Key(arg%12-10)
}

// install adds binding number len(w.bs): keyed on key (a heldGuard in the
// closure play), or closure-guarded by variant. A keyed install of a held
// key is refused instead, and installs nothing.
func (w *scriptWorld) install(variant byte, keyed bool, key Key, behavior, param byte) {
	id := len(w.bs)
	if id >= maxScriptBindings {
		return
	}
	h := Proc(fmt.Sprintf("h%d", id), func(task *sim.Task, m *mbuf.Mbuf) {
		w.log = append(w.log, fmt.Sprintf("h%d", id))
		w.act(task, m, behavior, param)
	})
	var b *Binding
	var err error
	switch {
	case keyed && w.keyed:
		b, err = w.d.InstallKey("E", key, h, 0)
	case variant == guardNone:
		b, err = w.d.Install("E", nil, h, 0)
	case !keyed && variant == guardKey:
		b, err = w.d.Install("E", keyGuard(key), h, 0)
	case keyed:
		if _, held := w.held[key]; held {
			err = ErrKeyBound // what InstallKey answers in the keyed play
		} else {
			self := new(*Binding)
			b, err = w.d.Install("E", w.heldGuard(self), h, 0)
			*self = b
		}
	default:
		b, err = w.d.Install("E", func(_ *sim.Task, m *mbuf.Mbuf) bool {
			if k, _, ok := firstByteKey(m); ok && k == key {
				panic("rogue guard")
			}
			return false
		}, h, 0)
	}
	if errors.Is(err, ErrKeyBound) {
		w.log = append(w.log, fmt.Sprintf("key %d refused", key))
		return
	}
	if err != nil {
		panic(err)
	}
	if keyed {
		w.held[key], w.keyB[b] = b, true
	}
	w.bs = append(w.bs, b)
}

// heldGuard is a keyed binding in the closure play: it accepts what the
// keyed play's lookup gives *self, the holder of the packet's exact key,
// else of its wildcard key.
func (w *scriptWorld) heldGuard(self **Binding) Guard {
	return func(_ *sim.Task, m *mbuf.Mbuf) bool {
		exact, wild, ok := firstByteKey(m)
		hb, held := w.held[exact]
		if !held {
			hb = w.held[wild]
		}
		return ok && hb == *self
	}
}

// addKey gives the j-th binding installed key: by AddKey in the keyed play,
// and in the closure play by the record of held keys, refusing what AddKey
// refuses.
func (w *scriptWorld) addKey(j byte, key Key) {
	if len(w.bs) == 0 {
		return
	}
	b := w.bs[int(j)%len(w.bs)]
	_, held := w.held[key]
	var err error
	switch {
	case w.keyed:
		err = w.d.AddKey(b, key)
	case !w.keyB[b] || b.removed:
		err = ErrNoKey
	case held:
		err = ErrKeyBound
	}
	if err == nil {
		w.held[key] = b
	}
	w.log = append(w.log, fmt.Sprintf("add key %d: no key %v, bound %v", key, errors.Is(err, ErrNoKey), errors.Is(err, ErrKeyBound)))
}

func (w *scriptWorld) uninstall(j byte) {
	if len(w.bs) == 0 {
		return
	}
	b := w.bs[int(j)%len(w.bs)]
	w.log = append(w.log, fmt.Sprintf("uninstall %v", w.d.Uninstall(b)))
	for key, hb := range w.held {
		if hb == b {
			delete(w.held, key)
		}
	}
}

func (w *scriptWorld) raise(task *sim.Task, m *mbuf.Mbuf) {
	w.depth++
	n := w.d.Raise(task, "E", m)
	w.depth--
	w.log = append(w.log, fmt.Sprintf("raised %d, charged %v", n, task.Charged()))
}

// act is a script handler's body.
func (w *scriptWorld) act(task *sim.Task, m *mbuf.Mbuf, behavior, param byte) {
	switch behavior % numBehaviors {
	case doCharge:
		task.Charge(sim.Time(param%4) * sim.Microsecond)
	case doUninstall:
		w.uninstall(param)
	case doInstall:
		w.install(guardKey, true, scriptKey(param), param>>2, param)
	case doPanic:
		panic("rogue handler")
	case doRaise:
		if w.depth < 2 {
			w.raise(task, m)
		}
	}
}

// firstDiff is the first index at which a and b differ, or -1.
func firstDiff[T comparable](a, b []T) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

// at is s[i], or the zero value past its end.
func at[T any](s []T, i int) (v T) {
	if i < len(s) {
		v = s[i]
	}
	return v
}

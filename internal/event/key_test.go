package event

import (
	"errors"
	"testing"

	"plexus/internal/mbuf"
	"plexus/internal/sim"
)

// firstByteKey is the test events' key extractor: a packet's key is its
// first byte, and a packet starting with 0xff has no key.
func firstByteKey(m *mbuf.Mbuf) (Key, bool) {
	b := m.Bytes()[0]
	return Key(b), b != 0xff
}

// keyGuard is the closure guard equivalent to a keyed binding on key.
func keyGuard(key Key) Guard {
	return func(_ *sim.Task, m *mbuf.Mbuf) bool {
		k, ok := firstByteKey(m)
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
			d.MustDeclare("E", Options{Key: func(m *mbuf.Mbuf) (Key, bool) {
				calls++
				return firstByteKey(m)
			}})
			var order []string
			for _, b := range []struct {
				name  string
				keyed bool
				key   Key
			}{{"closure1", false, 7}, {"keyed2", true, 7}, {"keyed-other", true, 8}, {"closure3", false, 7}, {"keyed4", true, 7}} {
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
			want := []string{"closure1", "keyed2", "closure3", "keyed4"}
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
				for _, key := range []Key{1, 2, 1, 0xff} {
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
			if _, err := d.InstallKey("E", 5, Proc("assassin", func(*sim.Task, *mbuf.Mbuf) { d.Uninstall(victim) }), 0); err != nil {
				t.Fatal(err)
			}
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

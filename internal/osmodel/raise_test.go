package osmodel

import (
	"testing"

	"plexus/internal/event"
	"plexus/internal/mbuf"
	"plexus/internal/sim"
)

// sampleLog is a sim.Metrics sink keeping the attributed charges.
type sampleLog struct{ samples []sample }

type sample struct {
	kind  sim.ProfKind
	owner string
	prio  sim.Priority
	start sim.Time
}

func (l *sampleLog) Hop(uint64, sim.Time, string, string, string, int) {}
func (l *sampleLog) QueueDepth(string, int)                            {}
func (l *sampleLog) Sample(_ string, kind sim.ProfKind, owner string, prio sim.Priority, start, _ sim.Time) {
	l.samples = append(l.samples, sample{kind, owner, prio, start})
}

// find returns the first sample of kind and owner.
func (l *sampleLog) find(kind sim.ProfKind, owner string) (sample, bool) {
	for _, s := range l.samples {
		if s.kind == kind && s.owner == owner {
			return s, true
		}
	}
	return sample{}, false
}

const testEvent event.Name = "Test.PacketRecv"

// raiseRig is one host with testEvent declared, raising from a task at prio.
type raiseRig struct {
	h    *Host
	ref  *event.Ref
	prio sim.Priority
	data []byte

	inRaise   bool     // set while the raising task is in RaiseRef
	raiserEnd sim.Time // when the raising task finished
	// ran counts handler or NoMatch invocations; inline, ranPrio and
	// ranStart describe the last one and the task it ran in.
	ran      int
	inline   bool
	ranPrio  sim.Priority
	ranStart sim.Time
}

func newRaiseRig(t testing.TB, p Personality, d DispatchMode, prio sim.Priority, handler bool) *raiseRig {
	r := &raiseRig{h: NewHost(sim.New(1), "h", p, d), prio: prio, data: make([]byte, 64)}
	observe := func(task *sim.Task, m *mbuf.Mbuf) {
		r.ran++
		r.inline = r.inRaise
		r.ranPrio, r.ranStart = task.Priority(), task.Start()
		m.Free()
	}
	if err := r.h.Disp.Declare(testEvent, event.Options{NoMatch: observe}); err != nil {
		t.Fatal(err)
	}
	if handler {
		if _, err := r.h.Disp.Install(testEvent, nil, event.Proc("h", observe), 0); err != nil {
			t.Fatal(err)
		}
	}
	r.ref = r.h.Disp.Ref(testEvent)
	return r
}

// raiseOnce runs one raise from a fresh task at the rig's priority. The
// raising task charges a microsecond after RaiseRef returns, so a deferred
// task starts strictly after every charge the raiser made.
func (r *raiseRig) raiseOnce() {
	r.h.CPU.SubmitAtArg(r.h.Sim.Now(), r.prio, "src", raiseFrom, r)
	r.h.Sim.Run()
}

func raiseFrom(t *sim.Task, a any) {
	r := a.(*raiseRig)
	r.inRaise = true
	r.h.RaiseRef(t, r.ref, r.h.Pool.FromBytes(r.data, 0))
	r.inRaise = false
	t.Charge(sim.Microsecond)
	r.raiserEnd = t.Now()
}

var raiseBoundaries = []struct {
	b Boundary
	p Personality
	d DispatchMode
}{
	{PlexusInterrupt, SPIN, DispatchInterrupt},
	{PlexusThread, SPIN, DispatchThread},
	{DigitalUnix, Monolithic, DispatchInterrupt},
}

// TestRaiseRef pins the receive hand-off on every boundary: which raises run
// inline and which in a deferred kernel task, that task's label and priority,
// and which task pays the thread spawn or the softirq.
func TestRaiseRef(t *testing.T) {
	for _, bd := range raiseBoundaries {
		for _, c := range []struct {
			name    string
			prio    sim.Priority
			handler bool
		}{
			{"interrupt", sim.PrioInterrupt, true},
			{"kernel", sim.PrioKernel, true},
			{"nohandler", sim.PrioInterrupt, false},
		} {
			t.Run(bd.b.String()+"/"+c.name, func(t *testing.T) {
				r := newRaiseRig(t, bd.p, bd.d, c.prio, c.handler)
				log := &sampleLog{}
				r.h.Sim.SetMetrics(log)
				r.raiseOnce()
				if r.ran != 1 {
					t.Fatalf("handler ran %d times, want 1", r.ran)
				}
				deferred := c.handler && (bd.b == PlexusThread || bd.b == DigitalUnix && c.prio == sim.PrioInterrupt)
				if r.inline == deferred {
					t.Fatalf("inline = %v, want %v", r.inline, !deferred)
				}
				spawn, spawned := log.find(sim.ProfDispatch, "thread-spawn")
				softirq, softirqd := log.find(sim.ProfDispatch, "softirq")
				if !deferred {
					if spawned || softirqd {
						t.Fatalf("inline raise charged a hand-off: %+v", log.samples)
					}
					return
				}
				if r.ranPrio != sim.PrioKernel {
					t.Errorf("deferred task priority %v, want kernel", r.ranPrio)
				}
				prefix := "softirq:"
				if bd.b == PlexusThread {
					prefix = "raise:"
				}
				if s, ok := log.find(sim.ProfTask, prefix+string(testEvent)); !ok || s.start != r.ranStart || s.prio != sim.PrioKernel {
					t.Errorf("no kernel task %q starting at %v: %+v", prefix+string(testEvent), r.ranStart, log.samples)
				}
				if bd.b == PlexusThread {
					if !spawned || softirqd || spawn.prio != c.prio || spawn.start >= r.raiserEnd {
						t.Errorf("thread spawn not charged to the raising task: %+v", log.samples)
					}
				} else if !softirqd || spawned || softirq.prio != sim.PrioKernel || softirq.start < r.ranStart {
					t.Errorf("softirq not charged to the deferred task: %+v", log.samples)
				}
			})
		}
	}
}

// A raise, deferred or not, allocates nothing once the host's job and task
// records are warm.
func TestRaiseRefAllocs(t *testing.T) {
	for _, bd := range raiseBoundaries {
		t.Run(bd.b.String(), func(t *testing.T) {
			r := newRaiseRig(t, bd.p, bd.d, sim.PrioInterrupt, true)
			for range 4 {
				r.raiseOnce()
			}
			if n := testing.AllocsPerRun(100, r.raiseOnce); n != 0 {
				t.Errorf("%v allocations per raise, want 0", n)
			}
		})
	}
}

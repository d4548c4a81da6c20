// Package sim provides the discrete-event simulation substrate on which the
// Plexus reproduction runs.
//
// The paper's measurements were taken on DEC Alpha workstations running the
// SPIN operating system; a userspace Go reproduction cannot execute code in a
// kernel, so instead every host is simulated: a virtual clock, a serial CPU
// resource with priority scheduling and utilization accounting, and an event
// queue. Protocol code is real (real packets, real checksums, real state
// machines); only *time* is virtual. See DESIGN.md §1 for the substitution
// argument.
//
// The engine is deterministic: events at equal timestamps fire in submission
// order, and all randomness flows through a seeded PRNG.
//
// The per-event path is allocation-free in steady state: fired and cancelled
// events return to a free list, the queue is a concrete 4-ary min-heap (no
// interface boxing), and the AtArg/AfterArg forms let hot callers schedule a
// pre-bound function plus a pooled argument instead of a fresh closure.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is a simulated timestamp or duration in nanoseconds. It deliberately
// mirrors time.Duration's unit so constants read naturally, but it is a
// distinct type: simulated time never mixes with wall-clock time.
type Time int64

// Convenient units of simulated time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String formats a Time with an adaptive unit, e.g. "437µs" or "1.2s".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.1fµs", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	}
}

// Micros reports t as a floating-point count of microseconds. The paper
// reports latencies in µs; experiment harnesses use this for output.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// event is one pending callback in the simulation. Events are pooled: a
// fired or cancelled event returns to the simulator's free list, and its
// generation counter is bumped so stale Timer handles cannot touch the
// recycled slot.
type event struct {
	at   Time
	seq  uint64    // tie-break: FIFO among equal timestamps
	gen  uint32    // recycle generation; Timers validate against it
	fn   func(any) // runs as fn(arg); At passes its closure through callFn
	arg  any
	dead bool   // cancelled
	next *event // free-list link
}

// eventBefore is the heap order: earliest timestamp first, FIFO within a
// timestamp.
func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Sim is a discrete-event simulator instance. It is not safe for concurrent
// use: the whole point is a single deterministic timeline. Independent Sims
// (one per experiment cell) may run on different goroutines concurrently.
type Sim struct {
	now      Time
	seq      uint64
	queue    []*event // 4-ary min-heap keyed on (at, seq)
	free     *event   // recycled events
	rng      *rand.Rand
	executed uint64
	metrics  Metrics
	spanSeq  uint64 // packet-lifecycle trace IDs; 0 = unstamped
}

// New returns a simulator whose clock starts at zero and whose PRNG is
// seeded with seed, so identical runs replay identically.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Rand exposes the simulation's deterministic PRNG. All stochastic choices
// (jitter, drop tests, workload generation) must draw from it.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Executed reports how many events have fired so far; useful in tests, for
// detecting runaway schedules, and for the bench harness's events/sec metric.
func (s *Sim) Executed() uint64 { return s.executed }

// Timer is a handle to a scheduled callback, returned by At/After. It is a
// small value (not a pointer) so scheduling does not allocate; the zero
// Timer is valid and behaves like one whose event already fired.
type Timer struct {
	ev  *event
	gen uint32
}

// Stop cancels the timer if it has not fired. It reports whether the
// cancellation prevented the callback from running; stopping a timer that
// already fired (or the zero Timer) returns false and has no effect.
func (t Timer) Stop() bool {
	e := t.ev
	if e == nil || e.gen != t.gen || e.dead {
		return false
	}
	e.dead = true
	e.fn = nil
	e.arg = nil
	return true
}

// Pending reports whether the timer is still scheduled to fire: it has
// neither fired nor been stopped.
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.dead
}

// alloc takes an event from the free list, or the heap when it is empty.
func (s *Sim) alloc() *event {
	if e := s.free; e != nil {
		s.free = e.next
		e.next = nil
		return e
	}
	return &event{}
}

// recycle bumps the event's generation (invalidating outstanding Timers) and
// returns it to the free list.
func (s *Sim) recycle(e *event) {
	e.gen++
	e.fn = nil
	e.arg = nil
	e.dead = false
	e.next = s.free
	s.free = e
}

// callFn is the callback At schedules: its argument is At's closure. A func
// value is pointer-shaped, so boxing it in the any allocates nothing.
func callFn(arg any) { arg.(func())() }

// At schedules fn to run at absolute simulated time at. Scheduling in the
// past panics: that is always a logic error in a discrete-event model.
func (s *Sim) At(at Time, label string, fn func()) Timer {
	return s.AtArg(at, label, callFn, fn)
}

// AtArg schedules fn(arg) at absolute time at. Unlike At, the callback is a
// plain function plus an argument rather than a closure, so hot paths that
// keep fn in a package-level variable and pool their argument structs
// schedule without allocating.
func (s *Sim) AtArg(at Time, label string, fn func(any), arg any) Timer {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v, before now %v", label, at, s.now))
	}
	e := s.alloc()
	e.at = at
	e.seq = s.seq
	e.fn = fn
	e.arg = arg
	s.seq++
	s.push(e)
	return Timer{ev: e, gen: e.gen}
}

// After schedules fn to run d after the current time.
func (s *Sim) After(d Time, label string, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for %q", d, label))
	}
	return s.At(s.now+d, label, fn)
}

// AfterArg is AtArg relative to the current time.
func (s *Sim) AfterArg(d Time, label string, fn func(any), arg any) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for %q", d, label))
	}
	return s.AtArg(s.now+d, label, fn, arg)
}

// push inserts e into the 4-ary heap.
func (s *Sim) push(e *event) {
	q := append(s.queue, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !eventBefore(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	s.queue = q
}

// pop removes and returns the earliest event. The queue must be non-empty.
func (s *Sim) pop() *event {
	q := s.queue
	n := len(q) - 1
	e := q[0]
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	s.queue = q
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventBefore(q[j], q[m]) {
				m = j
			}
		}
		if !eventBefore(q[m], q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	return e
}

// Step fires the next pending event, advancing the clock to its timestamp.
// It reports false when the queue is empty.
func (s *Sim) Step() bool {
	for len(s.queue) > 0 {
		e := s.pop()
		if e.dead {
			s.recycle(e)
			continue
		}
		s.now = e.at
		s.executed++
		fn, arg := e.fn, e.arg
		// Recycle before running: outstanding Timers are invalidated by
		// the generation bump, and the callback may immediately reuse
		// the slot for what it schedules.
		s.recycle(e)
		fn(arg)
		return true
	}
	return false
}

// Run fires events until the queue drains. Simulations with self-renewing
// work (periodic timers) must use RunUntil instead.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// RunUntil fires events with timestamps <= t, then sets the clock to t.
func (s *Sim) RunUntil(t Time) {
	for len(s.queue) > 0 {
		top := s.queue[0]
		if top.dead {
			// Discard cancelled events eagerly so a dead early event
			// cannot trick Step into firing a live one past t.
			s.recycle(s.pop())
			continue
		}
		if top.at > t {
			break
		}
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}

// QueueLen reports the event-queue length including cancelled entries — the
// O(1) depth gauge the telemetry plane samples every tick.
func (s *Sim) QueueLen() int { return len(s.queue) }

package sim

import "fmt"

// Priority orders contention for a CPU. Lower values run first, mirroring the
// paper's structure: device interrupts preempt kernel threads, which preempt
// user processes. (The model is run-to-completion: a lower-priority task that
// has started is not preempted, but among queued tasks priority wins. That is
// faithful enough for the latency/utilization shapes the paper reports.)
type Priority int

const (
	// PrioInterrupt is the network interrupt level; EPHEMERAL Plexus
	// handlers run here (paper §3.3).
	PrioInterrupt Priority = iota
	// PrioKernel is kernel-thread level; Plexus "thread" dispatch mode and
	// softirq-style monolithic protocol processing run here.
	PrioKernel
	// PrioUser is user-process level; monolithic applications run here.
	PrioUser
	numPrios
)

func (p Priority) String() string {
	switch p {
	case PrioInterrupt:
		return "interrupt"
	case PrioKernel:
		return "kernel"
	case PrioUser:
		return "user"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// Task is the execution context handed to every costed activity. Code charges
// the CPU for the virtual time it consumes; emissions (packet transmissions,
// follow-on work) are stamped with the task's current virtual time so causality
// is preserved within a single run-to-completion activity.
type Task struct {
	cpu      *CPU
	label    string
	prio     Priority
	start    Time
	charged  Time
	nextFree *Task // CPU task free list
}

// Now returns the task's current virtual time: its start time plus everything
// charged so far. All effects emitted by the task should carry this timestamp.
func (t *Task) Now() Time { return t.start + t.charged }

// Start returns the time at which the task began executing.
func (t *Task) Start() Time { return t.start }

// Charged returns the total CPU time this task has consumed.
func (t *Task) Charged() Time { return t.charged }

// Priority returns the priority the task runs at.
func (t *Task) Priority() Priority { return t.prio }

// CPU returns the processor the task runs on.
func (t *Task) CPU() *CPU { return t.cpu }

// Sim returns the simulator that owns the task's CPU.
func (t *Task) Sim() *Sim { return t.cpu.sim }

// Charge consumes d of CPU time. Negative charges panic.
func (t *Task) Charge(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative charge %v in task %q", d, t.label))
	}
	t.charged += d
}

// ChargeBytes consumes perByte of CPU time for each of n bytes — the shape of
// copies, checksums and programmed I/O.
func (t *Task) ChargeBytes(n int, perByte Time) {
	if n < 0 {
		panic(fmt.Sprintf("sim: negative byte count %d in task %q", n, t.label))
	}
	t.charged += Time(n) * perByte
}

// Refund returns d of previously charged time. The event dispatcher uses this
// to model premature termination of an EPHEMERAL handler that overran its
// per-handler allotment: the CPU time past the allotment was never actually
// consumed. Refunding more than was charged panics.
func (t *Task) Refund(d Time) {
	if d < 0 || d > t.charged {
		panic(fmt.Sprintf("sim: bad refund %v (charged %v) in task %q", d, t.charged, t.label))
	}
	t.charged -= d
}

// pendingTask is a submitted-but-not-yet-run task; its body is fn(task,
// arg). SubmitAt passes its closure as arg to callTask.
type pendingTask struct {
	label string
	prio  Priority
	fn    func(*Task, any)
	arg   any
}

// callTask is the body SubmitAt submits: its argument is SubmitAt's closure,
// which a func value's pointer shape boxes without allocating.
func callTask(t *Task, arg any) { arg.(func(*Task))(t) }

// submission carries a pendingTask from SubmitAt to its arrival event
// without a per-call closure; submissions are pooled on the CPU.
type submission struct {
	c    *CPU
	pt   pendingTask
	next *submission
}

// submitArrive is the arrival event body: enqueue the task and dispatch.
// It is a package-level func so scheduling it never allocates a closure.
func submitArrive(a any) {
	sub := a.(*submission)
	c := sub.c
	pt := sub.pt
	sub.pt = pendingTask{}
	sub.next = c.subFree
	c.subFree = sub
	c.queue[pt.prio] = append(c.queue[pt.prio], pt)
	if m := c.sim.metrics; m != nil {
		depth := 0
		for p := range c.queue {
			depth += len(c.queue[p]) - c.qhead[p]
		}
		m.QueueDepth(c.name, depth)
	}
	c.kick()
}

// CPU is a serial processor: one task body executes at a time, highest
// priority first, FIFO within a priority. It accounts busy time so experiments
// can report utilization (Figure 6).
type CPU struct {
	sim  *Sim
	name string
	// queue[p][qhead[p]:] holds the pending tasks of priority p. Dequeue
	// advances the head index instead of shifting the slice (a saturated
	// CPU's backlog makes shifting quadratic); the dead prefix is compacted
	// away once it outgrows the live tail.
	queue [numPrios][]pendingTask
	qhead [numPrios]int
	// freeAt is when the currently-running task (if any) finishes.
	freeAt  Time
	running bool

	busy     Time // total busy time since creation
	markBusy Time // busy at last MarkUtilization
	markTime Time // clock at last MarkUtilization

	// Allocation-free dispatch machinery: pooled submissions, a pooled
	// Task (at most one task body runs per CPU at a time — the model is
	// run-to-completion — so a small free list suffices), and the
	// completion callback materialized once instead of per task.
	subFree  *submission
	taskFree *Task
	kickFn   func()
}

// NewCPU creates a processor attached to s.
func NewCPU(s *Sim, name string) *CPU {
	c := &CPU{sim: s, name: name}
	c.kickFn = c.kick
	return c
}

// Name returns the CPU's diagnostic name.
func (c *CPU) Name() string { return c.name }

// Submit enqueues work at the current simulated time. The body runs when the
// CPU is free and no higher-priority work is queued.
func (c *CPU) Submit(prio Priority, label string, fn func(*Task)) {
	c.SubmitAt(c.sim.Now(), prio, label, fn)
}

// SubmitAt enqueues work to arrive at absolute time at (which must not be in
// the past). Device interrupt delivery uses this to inject work at packet
// arrival time.
func (c *CPU) SubmitAt(at Time, prio Priority, label string, fn func(*Task)) {
	c.SubmitAtArg(at, prio, label, callTask, fn)
}

// SubmitAtArg is SubmitAt for hot paths: fn is a plain function (kept in a
// package-level variable by the caller) and arg a pooled argument, so the
// submission allocates nothing in steady state.
func (c *CPU) SubmitAtArg(at Time, prio Priority, label string, fn func(*Task, any), arg any) {
	if prio < 0 || prio >= numPrios {
		panic(fmt.Sprintf("sim: bad priority %d for %q", prio, label))
	}
	sub := c.subFree
	if sub != nil {
		c.subFree = sub.next
		sub.next = nil
	} else {
		sub = &submission{c: c}
	}
	sub.pt = pendingTask{label: label, prio: prio, fn: fn, arg: arg}
	c.sim.AtArg(at, label, submitArrive, sub)
}

// kick starts the dispatch loop if the CPU is idle.
func (c *CPU) kick() {
	if c.running {
		return
	}
	start := c.sim.Now()
	if c.freeAt > start {
		// Busy with a previously-executed task's residual time; a
		// completion event is already scheduled.
		return
	}
	pt, ok := c.dequeue()
	if !ok {
		return
	}
	c.runTask(start, pt)
}

func (c *CPU) dequeue() (pendingTask, bool) {
	for p := Priority(0); p < numPrios; p++ {
		q, h := c.queue[p], c.qhead[p]
		if h >= len(q) {
			continue
		}
		pt := q[h]
		q[h] = pendingTask{} // drop fn/arg references
		h++
		switch {
		case h == len(q):
			c.queue[p], c.qhead[p] = q[:0], 0
		case h > 32 && h > len(q)-h:
			// Dead prefix outgrew the live tail: compact so capacity
			// tracks the backlog, not the total ever enqueued.
			n := copy(q, q[h:])
			clear(q[n:])
			c.queue[p], c.qhead[p] = q[:n], 0
		default:
			c.qhead[p] = h
		}
		return pt, true
	}
	return pendingTask{}, false
}

func (c *CPU) runTask(start Time, pt pendingTask) {
	c.running = true
	task := c.taskFree
	if task != nil {
		c.taskFree = task.nextFree
		*task = Task{cpu: c, label: pt.label, prio: pt.prio, start: start}
	} else {
		task = &Task{cpu: c, label: pt.label, prio: pt.prio, start: start}
	}
	pt.fn(task, pt.arg)
	c.busy += task.charged
	c.freeAt = start + task.charged
	c.running = false
	if m := c.sim.metrics; m != nil {
		m.Sample(c.name, ProfTask, pt.label, pt.prio, start, task.charged)
	}
	// The task body has returned; its *Task is dead and may be reused by
	// the next dispatch. (Capturing a *Task beyond the body was always a
	// bug: charges after completion were silently dropped.)
	task.nextFree = c.taskFree
	c.taskFree = task
	// The CPU is occupied until freeAt; dispatch the next queued task then.
	// kick re-checks freeAt: if another task slipped in at this timestamp
	// and advanced it, that task's own completion event takes over.
	c.sim.At(c.freeAt, "cpu-next", c.kickFn)
}

// Busy returns total busy time since creation.
func (c *CPU) Busy() Time { return c.busy }

// MarkUtilization starts a measurement window at the current time.
func (c *CPU) MarkUtilization() {
	c.markBusy = c.busy
	c.markTime = c.sim.Now()
}

// Utilization returns the fraction of time the CPU was busy during the window
// opened by MarkUtilization (or since creation if never marked). It returns 0
// for an empty window.
func (c *CPU) Utilization() float64 {
	elapsed := c.sim.Now() - c.markTime
	if elapsed <= 0 {
		return 0
	}
	u := float64(c.busy-c.markBusy) / float64(elapsed)
	if u > 1 {
		u = 1 // busy is credited at task start; clamp window-edge overshoot
	}
	return u
}

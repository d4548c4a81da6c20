package sim

import (
	"testing"
)

func TestTaskChargeAndNow(t *testing.T) {
	s := New(1)
	c := NewCPU(s, "cpu0")
	var sawStart, sawNow Time
	c.Submit(PrioKernel, "work", func(task *Task) {
		sawStart = task.Start()
		task.Charge(10 * Microsecond)
		task.ChargeBytes(100, 50*Nanosecond)
		sawNow = task.Now()
		if task.label != "work" || task.Priority() != PrioKernel {
			t.Errorf("task metadata wrong: %q %v", task.label, task.Priority())
		}
		if task.CPU() != c || task.Sim() != s {
			t.Error("task back-pointers wrong")
		}
	})
	s.Run()
	if sawStart != 0 {
		t.Errorf("start = %v, want 0", sawStart)
	}
	want := 10*Microsecond + 5*Microsecond
	if sawNow != want {
		t.Errorf("task.Now() = %v, want %v", sawNow, want)
	}
	if c.Busy() != want {
		t.Errorf("busy = %v, want %v", c.Busy(), want)
	}
}

func TestNegativeChargePanics(t *testing.T) {
	s := New(1)
	c := NewCPU(s, "cpu0")
	c.Submit(PrioUser, "bad", func(task *Task) {
		defer func() {
			if recover() == nil {
				t.Error("negative charge did not panic")
			}
		}()
		task.Charge(-1)
	})
	s.Run()
}

func TestNegativeByteCountPanics(t *testing.T) {
	s := New(1)
	c := NewCPU(s, "cpu0")
	c.Submit(PrioUser, "bad", func(task *Task) {
		defer func() {
			if recover() == nil {
				t.Error("negative byte count did not panic")
			}
		}()
		task.ChargeBytes(-1, Nanosecond)
	})
	s.Run()
}

// The CPU is a serial resource: a second task waits for the first to finish.
func TestCPUSerialization(t *testing.T) {
	s := New(1)
	c := NewCPU(s, "cpu0")
	var t1end, t2start Time
	c.Submit(PrioKernel, "first", func(task *Task) {
		task.Charge(100 * Microsecond)
		t1end = task.Now()
	})
	c.Submit(PrioKernel, "second", func(task *Task) {
		t2start = task.Start()
		task.Charge(10 * Microsecond)
	})
	s.Run()
	if t1end != 100*Microsecond {
		t.Errorf("first ended at %v, want 100µs", t1end)
	}
	if t2start != 100*Microsecond {
		t.Errorf("second started at %v, want 100µs (after first)", t2start)
	}
}

// Queued interrupt-priority work runs before queued user work even when
// submitted later.
func TestPriorityOrdering(t *testing.T) {
	s := New(1)
	c := NewCPU(s, "cpu0")
	var order []string
	// Occupy the CPU first so subsequent submissions queue up.
	c.Submit(PrioKernel, "hog", func(task *Task) { task.Charge(50 * Microsecond) })
	s.After(Microsecond, "submit", func() {
		c.Submit(PrioUser, "user", func(task *Task) { order = append(order, "user") })
		c.Submit(PrioInterrupt, "intr", func(task *Task) { order = append(order, "intr") })
	})
	s.Run()
	if len(order) != 2 || order[0] != "intr" || order[1] != "user" {
		t.Fatalf("priority order wrong: %v", order)
	}
}

func TestFIFOWithinPriority(t *testing.T) {
	s := New(1)
	c := NewCPU(s, "cpu0")
	var order []int
	c.Submit(PrioKernel, "hog", func(task *Task) { task.Charge(10 * Microsecond) })
	s.After(Microsecond, "submit", func() {
		for i := 0; i < 10; i++ {
			i := i
			c.Submit(PrioUser, "u", func(task *Task) { order = append(order, i) })
		}
	})
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated at %d: %v", i, order)
		}
	}
}

func TestSubmitAtFuture(t *testing.T) {
	s := New(1)
	c := NewCPU(s, "cpu0")
	var start Time
	c.SubmitAt(500*Microsecond, PrioInterrupt, "later", func(task *Task) { start = task.Start() })
	s.Run()
	if start != 500*Microsecond {
		t.Errorf("started at %v, want 500µs", start)
	}
}

func TestBadPriorityPanics(t *testing.T) {
	s := New(1)
	c := NewCPU(s, "cpu0")
	defer func() {
		if recover() == nil {
			t.Fatal("bad priority did not panic")
		}
	}()
	c.Submit(Priority(99), "bad", func(*Task) {})
}

func TestUtilizationWindow(t *testing.T) {
	s := New(1)
	c := NewCPU(s, "cpu0")
	// Before any work: 50µs busy within a 100µs window = 50%.
	c.MarkUtilization()
	c.Submit(PrioKernel, "w", func(task *Task) { task.Charge(50 * Microsecond) })
	s.After(100*Microsecond, "end", func() {})
	s.Run()
	if got := c.Utilization(); got < 0.49 || got > 0.51 {
		t.Errorf("utilization = %v, want ~0.5", got)
	}
	// New window with no work: 0.
	c.MarkUtilization()
	s.After(100*Microsecond, "idle", func() {})
	s.Run()
	if got := c.Utilization(); got != 0 {
		t.Errorf("idle window utilization = %v, want 0", got)
	}
}

func TestUtilizationEmptyWindow(t *testing.T) {
	s := New(1)
	c := NewCPU(s, "cpu0")
	c.MarkUtilization()
	if got := c.Utilization(); got != 0 {
		t.Errorf("empty window utilization = %v, want 0", got)
	}
}

func TestUtilizationClamped(t *testing.T) {
	s := New(1)
	c := NewCPU(s, "cpu0")
	c.MarkUtilization()
	// Task charges 100µs but we close the window immediately after it
	// starts: busy is credited at start, so without clamping util > 1.
	c.Submit(PrioKernel, "w", func(task *Task) { task.Charge(100 * Microsecond) })
	s.After(Microsecond, "early", func() {})
	s.RunUntil(Microsecond)
	if got := c.Utilization(); got > 1 {
		t.Errorf("utilization = %v, want clamped to <= 1", got)
	}
}

func TestPriorityString(t *testing.T) {
	if PrioInterrupt.String() != "interrupt" || PrioKernel.String() != "kernel" || PrioUser.String() != "user" {
		t.Error("priority names wrong")
	}
	if Priority(9).String() != "Priority(9)" {
		t.Error("unknown priority String wrong")
	}
}

// Tasks submitted from within a running task start no earlier than the
// submitting task's completion when on the same CPU.
func TestNestedSubmitRunsAfterCompletion(t *testing.T) {
	s := New(1)
	c := NewCPU(s, "cpu0")
	var innerStart Time
	c.Submit(PrioKernel, "outer", func(task *Task) {
		task.Charge(30 * Microsecond)
		c.SubmitAt(task.Now(), PrioKernel, "inner", func(inner *Task) {
			innerStart = inner.Start()
		})
		task.Charge(20 * Microsecond)
	})
	s.Run()
	// Outer finishes at 50µs; inner arrives at 30µs but must wait.
	if innerStart != 50*Microsecond {
		t.Errorf("inner started at %v, want 50µs", innerStart)
	}
}

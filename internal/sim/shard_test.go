package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// testMsg is one effect crossing a test coupling.
type testMsg struct {
	at Time
	v  int
}

// testCoupling is a minimal Coupling: timestamped integers delivered to a
// handler in the destination shard.
type testCoupling struct {
	dst       *Sim
	lookahead Time
	onMsg     func(at Time, v int)
	out       []testMsg
	inbox     []testMsg
}

func (c *testCoupling) send(at Time, v int) { c.out = append(c.out, testMsg{at, v}) }

func (c *testCoupling) Lookahead() Time { return c.lookahead }

func (c *testCoupling) Flip() {
	c.out, c.inbox = c.inbox[:0], c.out
}

func (c *testCoupling) Drain() {
	for _, m := range c.inbox {
		m := m
		c.dst.At(m.at, "xmsg", func() { c.onMsg(m.at, m.v) })
	}
	c.inbox = c.inbox[:0]
}

// pingPong wires n shards in a ring: each shard, on receiving a token,
// records it and forwards it to the next shard after the link delay. Returns
// the engine and the per-shard logs.
func pingPong(n int, delay Time, hops int) (*Engine, [][]string) {
	e := NewEngine()
	sims := make([]*Sim, n)
	shards := make([]*Shard, n)
	logs := make([][]string, n)
	for i := 0; i < n; i++ {
		sims[i] = New(int64(i + 1))
		shards[i] = e.AddShard(sims[i])
	}
	couplings := make([]*testCoupling, n)
	for i := 0; i < n; i++ {
		next := (i + 1) % n
		c := &testCoupling{dst: sims[next], lookahead: delay}
		couplings[i] = c
		e.Connect(c, shards[next])
	}
	for i := 0; i < n; i++ {
		i := i
		couplings[i].onMsg = func(at Time, v int) {
			target := (i + 1) % n
			logs[target] = append(logs[target], fmt.Sprintf("%v:%d", at, v))
			if v < hops {
				couplings[target].send(at+delay, v+1)
			}
		}
	}
	// Kick a token into shard 0: it fires at t=0 and enters coupling 0
	// headed to shard 1.
	sims[0].At(0, "kick", func() {
		logs[0] = append(logs[0], "kick")
		couplings[0].send(delay, 1)
	})
	return e, logs
}

func TestEngineWindowIsMinLookahead(t *testing.T) {
	e := NewEngine()
	s1, s2 := e.AddShard(New(1)), e.AddShard(New(2))
	e.Connect(&testCoupling{dst: s2.sim, lookahead: 30 * Microsecond}, s2)
	e.Connect(&testCoupling{dst: s1.sim, lookahead: 10 * Microsecond}, s1)
	if w := e.Window(); w != 10*Microsecond {
		t.Fatalf("window = %v, want 10µs", w)
	}
}

func TestEngineRejectsNonPositiveLookahead(t *testing.T) {
	e := NewEngine()
	sh := e.AddShard(New(1))
	e.Connect(&testCoupling{dst: sh.sim, lookahead: 0}, sh)
	defer func() {
		if recover() == nil {
			t.Fatal("zero lookahead did not panic")
		}
	}()
	e.Run(Millisecond, 1)
}

func TestEngineUncoupledShardsRunToHorizon(t *testing.T) {
	e := NewEngine()
	fired := [2]int{}
	for i := 0; i < 2; i++ {
		i := i
		s := New(int64(i))
		s.At(7*Microsecond, "tick", func() { fired[i]++ })
		e.AddShard(s)
	}
	e.Run(Millisecond, 2)
	if fired != [2]int{1, 1} {
		t.Fatalf("fired = %v, want [1 1]", fired)
	}
	if e.Rounds() != 1 {
		t.Fatalf("uncoupled shards took %d rounds, want 1", e.Rounds())
	}
	if e.now != Millisecond {
		t.Fatalf("engine now = %v, want 1ms", e.now)
	}
}

// TestEngineDeterministicAcrossWorkers is the core property: the same
// topology produces byte-identical per-shard logs and event counts at any
// worker count and any GOMAXPROCS.
func TestEngineDeterministicAcrossWorkers(t *testing.T) {
	const shards, hops = 5, 400
	delay := 52 * Microsecond
	type result struct {
		logs  [][]string
		execs []uint64
		now   Time
	}
	run := func(workers, procs int) result {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		e, logs := pingPong(shards, delay, hops)
		e.Run(30*Millisecond, workers)
		var execs []uint64
		for _, sh := range e.Shards() {
			execs = append(execs, sh.sim.Executed())
		}
		return result{logs: logs, execs: execs, now: e.now}
	}
	base := run(1, 1)
	if base.execs[0] == 0 {
		t.Fatal("no events executed in baseline run")
	}
	total := 0
	for _, l := range base.logs {
		total += len(l)
	}
	if total != hops+1 {
		t.Fatalf("token visited %d times, want %d", total, hops+1)
	}
	for _, cfg := range [][2]int{{1, 4}, {2, 1}, {2, 4}, {5, 2}, {8, 4}} {
		got := run(cfg[0], cfg[1])
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d GOMAXPROCS=%d diverged from sequential:\ngot  %+v\nwant %+v",
				cfg[0], cfg[1], got, base)
		}
	}
}

// TestEngineResume checks that Run can be called repeatedly, continuing from
// the previous horizon, with state identical to one long run.
func TestEngineResume(t *testing.T) {
	delay := 52 * Microsecond
	eOne, logsOne := pingPong(3, delay, 100)
	eOne.Run(10*Millisecond, 2)

	eTwo, logsTwo := pingPong(3, delay, 100)
	for _, h := range []Time{2 * Millisecond, 5 * Millisecond, 10 * Millisecond} {
		eTwo.Run(h, 2)
	}
	if !reflect.DeepEqual(logsOne, logsTwo) {
		t.Fatal("split run diverged from single run")
	}
	if eOne.Executed() != eTwo.Executed() {
		t.Fatalf("executed %d vs %d", eOne.Executed(), eTwo.Executed())
	}
}

func TestSpanBase(t *testing.T) {
	s := New(1)
	s.SetSpanBase(SpanBase(3))
	first := s.NextSpan()
	if first != SpanBase(3)+1 {
		t.Fatalf("first span = %#x, want %#x", first, SpanBase(3)+1)
	}
	s.NextSpan()
	if got := s.spanSeq & (1<<spanBaseShift - 1); got != 2 {
		t.Fatalf("span count = %d, want 2", got)
	}
}

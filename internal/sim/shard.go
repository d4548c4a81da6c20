// Sharded execution: several Sim instances advancing in parallel under a
// conservative lookahead protocol.
//
// A topology partitioned at link boundaries has a useful physical property:
// a frame crossing from one partition to another cannot take effect earlier
// than the boundary link's minimum latency (serialization of a minimum-size
// frame plus propagation). That latency is the coupling's *lookahead*. The
// Engine exploits it the way SimBricks couples component simulators: all
// shards advance in lock-step windows no wider than the smallest lookahead,
// exchanging boundary traffic only at window barriers.
//
// The protocol per round, with T_r the round's start time and W the window:
//
//  1. Flip every coupling (single-threaded): effects the source shards
//     published during the previous round become visible to their
//     destination shards — a double-buffer swap, no locks.
//  2. In parallel, each shard drains its inbound couplings (scheduling the
//     released effects into its own event queue) and then runs its Sim up
//     to T_r + W.
//  3. Barrier; advance to the next round.
//
// Causal safety: an effect generated by an event executing at time
// t ∈ (T_r, T_r+W] enters its coupling timestamped at least t + L, where L
// is the coupling's lookahead. Since L >= W, that timestamp is strictly
// after T_r + W — the barrier at which the effect is released — so a drained
// effect is always scheduled in its destination's future, never its past.
// Events that could have influenced it have all fired.
//
// Determinism: the shard partition is fixed by the topology, flips and
// drains run in registration order, and the parallel phase only touches
// per-shard state. The worker count therefore changes wall-clock only:
// every schedule, every seq tie-break, and every PRNG draw is identical at
// any worker count and any GOMAXPROCS. Byte-identical output at shard
// worker count 1 or N is a structural property, not a tested coincidence.
package sim

import (
	"fmt"
	"sync"
	"time"
)

// Coupling is a one-directional conduit for simulated effects between two
// shards — in practice, one direction of a boundary link's traffic. The
// source shard fills it during a round; the Engine flips it at the barrier;
// the destination shard drains it at the start of the next round.
type Coupling interface {
	// Lookahead is the minimum simulated delay between an effect entering
	// the coupling and its earliest possible timestamp in the destination
	// shard. It must be positive and constant; the Engine's window is the
	// minimum lookahead over all couplings.
	Lookahead() Time
	// Flip publishes effects accumulated since the previous flip to the
	// destination side and recycles cells the destination consumed. It is
	// called between rounds, never concurrently with Drain or with source
	// activity.
	Flip()
	// Drain schedules every published effect into the destination shard.
	// It is called by the destination shard's worker at round start, and
	// may touch only destination-shard state.
	Drain()
}

// Shard is one partition of a sharded simulation: a Sim plus the couplings
// that deliver into it.
type Shard struct {
	sim *Sim
	in  []Coupling
	// busyWall accumulates wall-clock time spent inside this shard's round
	// work (drains + RunUntil). Written by whichever worker owns the shard
	// in a round; the WaitGroup barrier orders those writes before any
	// post-Run read.
	busyWall time.Duration
}

// Engine coordinates a set of shards through windowed barrier rounds.
type Engine struct {
	shards    []*Shard
	couplings []Coupling
	now       Time
	rounds    uint64
	// parallelWall accumulates wall-clock time of the parallel phase of
	// every round (dispatch to barrier); a shard's barrier wait is this
	// minus its own busy time.
	parallelWall time.Duration
}

// NewEngine returns an empty engine.
func NewEngine() *Engine { return &Engine{} }

// AddShard registers s as a shard. Registration order is part of the
// deterministic schedule (flips and sequential execution follow it).
func (e *Engine) AddShard(s *Sim) *Shard {
	sh := &Shard{sim: s}
	e.shards = append(e.shards, sh)
	return sh
}

// Connect registers coupling c as an input of shard dst. The destination
// drains it at the start of every round.
func (e *Engine) Connect(c Coupling, dst *Shard) {
	e.couplings = append(e.couplings, c)
	dst.in = append(dst.in, c)
}

// Shards returns the registered shards in registration order.
func (e *Engine) Shards() []*Shard { return e.shards }

// Rounds reports how many barrier rounds have completed.
func (e *Engine) Rounds() uint64 { return e.rounds }

// Executed sums fired events across all shards.
func (e *Engine) Executed() uint64 {
	var n uint64
	for _, sh := range e.shards {
		n += sh.sim.Executed()
	}
	return n
}

// Window returns the barrier interval: the minimum lookahead over all
// couplings. With no couplings the shards are independent and the window is
// unbounded (0 is returned; Run treats it as "one round to the horizon").
func (e *Engine) Window() Time {
	var w Time
	for _, c := range e.couplings {
		l := c.Lookahead()
		if l <= 0 {
			panic(fmt.Sprintf("sim: coupling with non-positive lookahead %v", l))
		}
		if w == 0 || l < w {
			w = l
		}
	}
	return w
}

// Run advances every shard to time until using the given number of worker
// goroutines (clamped to [1, len(shards)]). workers == 1 runs the identical
// round schedule on the calling goroutine. Results are byte-identical at any
// worker count; only wall-clock differs.
func (e *Engine) Run(until Time, workers int) {
	if until < e.now {
		panic(fmt.Sprintf("sim: engine run until %v, before now %v", until, e.now))
	}
	if len(e.shards) == 0 || until == e.now {
		e.now = until
		return
	}
	window := e.Window()
	if workers < 1 {
		workers = 1
	}
	if workers > len(e.shards) {
		workers = len(e.shards)
	}
	if workers == 1 {
		for e.now < until {
			next := e.horizon(window, until)
			for _, c := range e.couplings {
				c.Flip()
			}
			phase := time.Now()
			for _, sh := range e.shards {
				runShardRound(sh, next)
			}
			e.parallelWall += time.Since(phase)
			e.now = next
			e.rounds++
		}
		return
	}

	// Persistent workers with striped shard ownership: worker w owns shards
	// w, w+workers, w+2·workers, … The assignment is fixed, but since the
	// parallel phase touches only per-shard state it has no bearing on
	// results — the channel send/receive and WaitGroup edges provide the
	// happens-before ordering between flips and shard execution.
	var wg sync.WaitGroup
	rounds := make([]chan Time, workers)
	for w := range rounds {
		rounds[w] = make(chan Time, 1)
	}
	for w := 0; w < workers; w++ {
		go func(w int) {
			for next := range rounds[w] {
				for i := w; i < len(e.shards); i += workers {
					runShardRound(e.shards[i], next)
				}
				wg.Done()
			}
		}(w)
	}
	for e.now < until {
		next := e.horizon(window, until)
		for _, c := range e.couplings {
			c.Flip()
		}
		phase := time.Now()
		wg.Add(workers)
		for _, ch := range rounds {
			ch <- next
		}
		wg.Wait()
		e.parallelWall += time.Since(phase)
		e.now = next
		e.rounds++
	}
	for _, ch := range rounds {
		close(ch)
	}
}

// horizon returns the end of the round starting at e.now.
func (e *Engine) horizon(window, until Time) Time {
	if window == 0 {
		return until // uncoupled shards: one round to the end
	}
	next := e.now + window
	if next > until {
		next = until
	}
	return next
}

// ParallelWall reports accumulated wall-clock time of the rounds' parallel
// phases.
func (e *Engine) ParallelWall() time.Duration { return e.parallelWall }

// BarrierWait estimates how long sh sat idle at round barriers: total
// parallel-phase wall time minus the shard's own busy time. Wall-clock
// diagnostics vary run to run, so they stay out of the deterministic
// telemetry record and its series exports.
func (e *Engine) BarrierWait(sh *Shard) time.Duration {
	w := e.parallelWall - sh.busyWall
	if w < 0 {
		return 0
	}
	return w
}

// runShardRound executes one shard's share of a round: release boundary
// traffic, then advance the local clock to the barrier.
func runShardRound(sh *Shard, next Time) {
	start := time.Now()
	for _, c := range sh.in {
		c.Drain()
	}
	sh.sim.RunUntil(next)
	sh.busyWall += time.Since(start)
}

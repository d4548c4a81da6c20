package workload

import (
	"fmt"
	"sort"

	"plexus/internal/sim"
)

// measured carries one repetition from the end of set-up to its Result: the
// host-clock window around the simulated run, the simulated server CPU spent
// inside it, and the teardown verdicts folded into the failure count.
type measured struct {
	w     *world
	rec   *recorder
	setup Setup
	// window is the simulated length of the measured run, the denominator
	// of goodput.
	window sim.Time
	// goodput and cpuOps, when set, replace the defaults (verified bytes
	// over the window; one op per verified op): paper-suite reports the
	// paper's own throughput figure and server CPU per echo.
	goodput float64
	cpuOps  uint64

	mark  hostMark
	host  HostDelta
	busy0 sim.Time
	busy  sim.Time
	pool0 int64
}

// begin opens the measured window.
func (m *measured) begin() {
	m.pool0 = m.w.poolsInUse()
	m.busy0 = m.w.serverBusy()
	m.mark = markHost()
}

// end closes it.
func (m *measured) end() {
	m.host = m.mark.since()
	m.busy = m.w.serverBusy() - m.busy0
}

// result reads the counters, runs the workload's teardown (closing what is
// still open and draining the wires) and folds audit violations, watchdog
// alarms and leaked buffers into the failure count.
func (m *measured) result(teardown func()) (*Result, error) {
	rec := m.rec
	if rec.ok == 0 {
		return nil, fmt.Errorf("oracle could not run: no op completed (%d failed: %v)", rec.failed, rec.failures)
	}
	c := m.w.counters(rec.ok)
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	digest := digestOf(rec, c, keys)
	if teardown != nil {
		teardown()
	}
	violations, alarms, leaked := m.w.verdicts(c, m.pool0)
	for i := uint64(0); i < violations; i++ {
		rec.fail("audit violation")
	}
	for i := uint64(0); i < alarms; i++ {
		rec.fail("watchdog alarm")
	}
	if leaked != 0 {
		rec.fail("%d mbufs not back in their pools at teardown", leaked)
	}
	p50, p99 := percentiles(rec.lat)
	goodput, cpuOps := m.goodput, m.cpuOps
	if goodput == 0 {
		goodput = float64(rec.bytes) * 8 / m.window.Seconds() / 1e6
	}
	if cpuOps == 0 {
		cpuOps = rec.ok
	}
	return &Result{
		Attempted: rec.ok + rec.failed,
		Failed:    rec.failed,
		Failures:  rec.failures,
		Setup:     m.setup,
		Host:      m.host,
		Sim: SimMetrics{
			LatencyP50us: p50.Micros(),
			LatencyP99us: p99.Micros(),
			Samples:      len(rec.lat),
			GoodputMbps:  goodput,
			CPUusPerOp:   m.busy.Micros() / float64(cpuOps),
		},
		Digest:   digest,
		Counters: c,
		Servers:  m.w.serverNames(),
		Gateway:  m.w.gatewayName(),
	}, nil
}

package fault

import (
	"plexus/internal/sim"
	"plexus/internal/view"
)

// Scenario is the time-scheduled driver of the fault plane: it scripts link
// flaps and network partitions against the simulated clock, so a whole
// outage timeline — carrier drops at t=5s, heals at t=7s, a partition splits
// the hosts at t=30s — is declared up front and replays identically for a
// given seed. Steps scheduled at the same instant fire in declaration order
// (the simulator's FIFO tie-break).
type Scenario struct {
	in    *Injector
	flaps uint64
}

// Scenario returns a scripted driver for the injector's link.
func (in *Injector) Scenario() *Scenario { return &Scenario{in: in} }

// At schedules an arbitrary fault-plane step — the escape hatch for
// scenarios the canned verbs below do not cover.
func (sc *Scenario) At(at sim.Time, step func()) {
	sc.in.sim.At(at, "fault-scenario", step)
}

// DownAt cuts the link carrier at the given instant.
func (sc *Scenario) DownAt(at sim.Time) {
	sc.At(at, func() {
		sc.flaps++
		sc.in.down = true
	})
}

// UpAt restores the link carrier.
func (sc *Scenario) UpAt(at sim.Time) {
	sc.At(at, func() { sc.in.down = false })
}

// FlapEvery scripts count link flaps: starting at start and repeating every
// period, the link goes down for downFor, then comes back.
func (sc *Scenario) FlapEvery(start, period, downFor sim.Time, count int) {
	for i := 0; i < count; i++ {
		at := start + sim.Time(i)*period
		sc.DownAt(at)
		sc.UpAt(at + downFor)
	}
}

// PartitionAt splits the link between the two MAC sets at the given instant.
func (sc *Scenario) PartitionAt(at sim.Time, a, b []view.MAC) {
	sc.At(at, func() { sc.in.Partition(a, b) })
}

// HealAt removes the partition.
func (sc *Scenario) HealAt(at sim.Time) {
	sc.At(at, func() { sc.in.Heal() })
}

// Flaps reports how many down transitions have executed so far.
func (sc *Scenario) Flaps() uint64 { return sc.flaps }

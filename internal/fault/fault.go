// Package fault is the deterministic fault-injection plane: it turns the raw
// per-frame hooks of internal/netdev (drop, mangle, delay, duplicate, carrier
// state) into declarative, composable, seeded models — Bernoulli and
// Gilbert–Elliott loss, bit-flip corruption, duplication, jitter-induced
// reordering — plus a time-scheduled scenario driver for link flaps and
// partitions.
//
// Simulation platforms treat configurable error models as a first-class plane
// of the simulator; this package plays that role for the Plexus reproduction.
// Every stochastic choice draws from the simulation's own seeded PRNG, so a
// given seed replays the exact same fault sequence and every experiment under
// fault is byte-for-byte reproducible, at any worker-pool parallelism —
// each experiment cell owns its simulator, its link, and its injector.
//
//	in := fault.Attach(n.Sim, n.Link)
//	in.Lose(fault.Bernoulli{P: 0.05})          // 5% random loss
//	in.Lose(fault.Burst(0.02, 4))              // plus 2% loss in 4-frame bursts
//	in.Corrupt(fault.BitFlip{P: 0.001})        // line noise
//	in.Scenario().FlapEvery(5*sim.Second, 20*sim.Second, 2*sim.Second, 4)
package fault

import (
	"math/rand"

	"plexus/internal/netdev"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// Stats counts fault firings per model class. Flapped mirrors the link's
// down-drop counter so one snapshot describes the whole fault plane.
type Stats struct {
	Lost        uint64 `json:"lost"`
	Mangled     uint64 `json:"mangled"`
	Duplicated  uint64 `json:"duplicated"`
	Delayed     uint64 `json:"delayed"`
	Partitioned uint64 `json:"partitioned"`
	Flapped     uint64 `json:"flapped"`
}

// Injector owns a link's fault hooks and composes declarative models onto
// them. Attach installs the injector as the link's drop/mangle/delay/dup
// functions; models added afterwards take effect immediately. An injector
// belongs to one simulator and is not safe for concurrent use — exactly like
// the simulator itself.
type Injector struct {
	sim  *sim.Sim
	link *netdev.Link
	rng  *rand.Rand

	loss    []DropModel
	corrupt []CorruptModel
	dup     []DropModel
	delay   []DelayModel

	// partition, when non-nil, drops unicast frames crossing between the
	// two MAC sets.
	partA map[view.MAC]bool
	partB map[view.MAC]bool

	stats Stats
}

// Attach creates an injector on link, installing it as the link's fault
// hooks. All randomness is drawn from s's seeded PRNG.
func Attach(s *sim.Sim, link *netdev.Link) *Injector {
	in := &Injector{sim: s, link: link, rng: s.Rand()}
	link.SetDropFn(in.dropFrame)
	link.SetMangleFn(in.mangleFrame)
	link.SetDelayFn(in.delayFrame)
	link.SetDupFn(in.dupFrame)
	return in
}

// Lose adds a loss model; frames any model fires on vanish from the wire.
func (in *Injector) Lose(m DropModel) *Injector {
	in.loss = append(in.loss, m)
	return in
}

// Corrupt adds a corruption model; it may damage frame bytes in flight.
func (in *Injector) Corrupt(m CorruptModel) *Injector {
	in.corrupt = append(in.corrupt, m)
	return in
}

// Duplicate adds a duplication model; frames it fires on are delivered twice.
func (in *Injector) Duplicate(m DropModel) *Injector {
	in.dup = append(in.dup, m)
	return in
}

// Delay adds a jitter model; per-frame extra delays reorder deliveries.
func (in *Injector) Delay(m DelayModel) *Injector {
	in.delay = append(in.delay, m)
	return in
}

// Partition splits the link: unicast frames between a MAC in a and a MAC in b
// (either direction) are dropped; traffic within each side, and broadcast or
// multicast frames, still pass. A new call replaces any existing partition.
func (in *Injector) Partition(a, b []view.MAC) {
	in.partA = macSet(a)
	in.partB = macSet(b)
}

// Heal removes the partition.
func (in *Injector) Heal() {
	in.partA = nil
	in.partB = nil
}

// Reset removes every model and the partition, quieting the fault plane
// (counters and link carrier state are left untouched).
func (in *Injector) Reset() {
	in.loss = nil
	in.corrupt = nil
	in.dup = nil
	in.delay = nil
	in.Heal()
}

// Stats returns a snapshot of fault counters; Flapped reflects frames the
// link discarded while its carrier was down.
func (in *Injector) Stats() Stats {
	s := in.stats
	s.Flapped = in.link.DownDrops()
	return s
}

func macSet(macs []view.MAC) map[view.MAC]bool {
	m := make(map[view.MAC]bool, len(macs))
	for _, mac := range macs {
		m[mac] = true
	}
	return m
}

// dropFrame is the link's dropFn: partition first, then loss models in the
// order added.
func (in *Injector) dropFrame(wire []byte) bool {
	if in.partA != nil && in.crossesPartition(wire) {
		in.stats.Partitioned++
		return true
	}
	for _, m := range in.loss {
		if m.Drop(in.rng, wire) {
			in.stats.Lost++
			return true
		}
	}
	return false
}

func (in *Injector) crossesPartition(wire []byte) bool {
	eth, err := view.Ethernet(wire)
	if err != nil {
		return false
	}
	dst := eth.Dst()
	if dst.IsBroadcast() || dst.IsMulticast() {
		return false
	}
	src := eth.Src()
	return in.partA[src] && in.partB[dst] || in.partB[src] && in.partA[dst]
}

// mangleFrame is the link's mangleFn: every corruption model gets a chance.
func (in *Injector) mangleFrame(wire []byte) {
	for _, m := range in.corrupt {
		if m.Corrupt(in.rng, wire) {
			in.stats.Mangled++
		}
	}
}

// dupFrame is the link's dupFn.
func (in *Injector) dupFrame(wire []byte) bool {
	for _, m := range in.dup {
		if m.Drop(in.rng, wire) {
			in.stats.Duplicated++
			return true
		}
	}
	return false
}

// delayFrame is the link's delayFn: model delays accumulate.
func (in *Injector) delayFrame(wire []byte) sim.Time {
	var d sim.Time
	for _, m := range in.delay {
		d += m.Delay(in.rng, wire)
	}
	if d > 0 {
		in.stats.Delayed++
	}
	return d
}

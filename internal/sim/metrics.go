package sim

// This file defines the flight-recorder hooks: an optional Metrics sink that
// receives packet-lifecycle hops, attributed CPU charges, and run-queue depth
// observations from the whole stack. The sink is installed per simulator
// (SetMetrics), so independent experiment cells record independently and the
// harness stays deterministic at any parallelism.
//
// The hooks are designed to cost one nil-check when disabled and to allocate
// nothing when enabled: every argument is a value or a precomputed string, and
// the concrete sink (internal/stats.Recorder) writes into preallocated rings.

// ProfKind classifies an attributed CPU charge for the simulated-CPU
// profiler. The paper's latency decomposition argues the SPIN/DUX gap is
// traps + copies + dispatch; these kinds make the attribution explicit.
type ProfKind uint8

const (
	// ProfTask is a whole task body, emitted by the CPU when it completes.
	ProfTask ProfKind = iota
	// ProfTrap is kernel-structure overhead: interrupt entry, traps,
	// context switches, wakeups, socket-layer plumbing.
	ProfTrap
	// ProfCopy is data movement: user/kernel boundary copies, programmed
	// I/O, memory-to-memory copies.
	ProfCopy
	// ProfChecksum is software internet-checksum folding.
	ProfChecksum
	// ProfDispatch is event-dispatch overhead: guard evaluations, handler
	// invocation cost, thread hand-offs, softirq hand-offs.
	ProfDispatch
	// ProfHandler is a handler body run by the event dispatcher.
	ProfHandler
	// ProfDriver is fixed per-packet device-driver work.
	ProfDriver
	// ProfProto is protocol-layer header processing.
	ProfProto
	// ProfFabric is match-action pipeline execution in the forwarding plane.
	ProfFabric
	// NumProfKinds bounds fixed per-kind tables in sinks.
	NumProfKinds
)

func (k ProfKind) String() string {
	switch k {
	case ProfTask:
		return "task"
	case ProfTrap:
		return "trap"
	case ProfCopy:
		return "copy"
	case ProfChecksum:
		return "checksum"
	case ProfDispatch:
		return "dispatch"
	case ProfHandler:
		return "handler"
	case ProfDriver:
		return "driver"
	case ProfProto:
		return "proto"
	case ProfFabric:
		return "fabric"
	default:
		return "unknown"
	}
}

// Metrics receives flight-recorder records. A nil sink disables recording
// with one-branch overhead at every instrumentation point. Implementations
// must not allocate per call in steady state; internal/stats.Recorder is the
// canonical sink.
type Metrics interface {
	// Hop records one step of a packet's lifecycle: span is the packet's
	// trace ID (stamped in the mbuf header), host the CPU it happened on,
	// layer/action the protocol node and what it did, bytes the packet
	// length at that point.
	Hop(span uint64, at Time, host, layer, action string, bytes int)
	// Sample records an attributed CPU charge of dur starting at start.
	Sample(host string, kind ProfKind, owner string, prio Priority, start, dur Time)
	// QueueDepth records the CPU's run-queue depth after an arrival.
	QueueDepth(host string, depth int)
}

// SetMetrics installs (or clears, with nil) the simulation's metrics sink.
func (s *Sim) SetMetrics(m Metrics) { s.metrics = m }

// Metrics returns the installed sink, or nil.
func (s *Sim) Metrics() Metrics { return s.metrics }

// MetricsEnabled reports whether a metrics sink is installed.
func (s *Sim) MetricsEnabled() bool { return s.metrics != nil }

// NextSpan allocates a packet-lifecycle trace ID. IDs are per-simulator and
// sequential from 1 (above any SetSpanBase offset), so a run's spans are
// stable across replays; 0 means "unstamped" everywhere.
func (s *Sim) NextSpan() uint64 {
	s.spanSeq++
	return s.spanSeq
}

// SetSpanBase offsets this simulator's span IDs. Sharded topologies give
// each shard a disjoint base (shard index shifted into the high bits) so
// spans stay unique across the whole topology while each shard allocates
// them locally and deterministically. Call before any span is stamped.
func (s *Sim) SetSpanBase(base uint64) { s.spanSeq = base }

// spanBaseShift is the low-bit width reserved for per-shard span sequence
// numbers; bases passed to SetSpanBase must be multiples of 1<<spanBaseShift.
const spanBaseShift = 40

// SpanBase returns the canonical span base for shard index i.
func SpanBase(i int) uint64 { return uint64(i) << spanBaseShift }

// Hop records a packet-lifecycle hop at the task's current virtual time on
// the task's CPU. It is a no-op when metrics are disabled or the packet was
// never stamped (span 0).
func (t *Task) Hop(span uint64, layer, action string, bytes int) {
	if m := t.cpu.sim.metrics; m != nil && span != 0 {
		m.Hop(span, t.Now(), t.cpu.name, layer, action, bytes)
	}
}

// ChargeProf is Charge plus profiler attribution: the charge interval
// [Now, Now+d) is reported to the metrics sink under the given kind and
// owner. owner must be a precomputed string (a constant or a field built at
// setup), never formatted per packet.
func (t *Task) ChargeProf(kind ProfKind, owner string, d Time) {
	if m := t.cpu.sim.metrics; m != nil && d > 0 {
		m.Sample(t.cpu.name, kind, owner, t.prio, t.Now(), d)
	}
	t.Charge(d)
}

// ChargeBytesProf is ChargeBytes plus profiler attribution.
func (t *Task) ChargeBytesProf(kind ProfKind, owner string, n int, perByte Time) {
	if m := t.cpu.sim.metrics; m != nil {
		if d := Time(n) * perByte; d > 0 {
			m.Sample(t.cpu.name, kind, owner, t.prio, t.Now(), d)
		}
	}
	t.ChargeBytes(n, perByte)
}

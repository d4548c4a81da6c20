// Switch models a store-and-forward Ethernet switch as a first-class fabric
// component, replacing the shared-medium broadcast bus for scale topologies.
// Each port joins one Link (the cable to a host, or to a shared segment
// hanging off the port); frames arriving on a port are learned into a MAC
// table, then forwarded out exactly the owning port — or flooded when the
// destination is broadcast, multicast, or unknown. Each port has a bounded
// output queue: frames that arrive faster than the port can serialize them
// are tail-dropped and counted, which is where overload becomes visible in
// the scale experiments.
//
// The switch is pure fabric — it has no CPU and charges no host cycles; its
// costs are time (store-and-forward latency, per-port serialization,
// propagation) and loss (tail drops). Ingress processing runs as simulator
// events at frame-arrival instants, so MAC learning and queue accounting are
// causal even when transmitters on different cables overlap. The per-frame
// path allocates nothing in steady state: ingress jobs are pooled and the
// departure ring is reused in place.
package netdev

import (
	"plexus/internal/sim"
	"plexus/internal/view"
)

// Switch tunables.
const (
	// DefaultSwitchLatency is the store-and-forward processing delay: the
	// gap between the last bit arriving on the ingress port and the frame
	// becoming eligible for egress serialization.
	DefaultSwitchLatency = 4 * sim.Microsecond
	// DefaultPortQueueFrames bounds each port's output queue.
	DefaultPortQueueFrames = 64
	// DefaultMACAgeTime expires idle MAC-table entries.
	DefaultMACAgeTime = 300 * sim.Second
)

// SwitchConfig tunes a Switch; zero fields take the defaults above.
type SwitchConfig struct {
	Latency     sim.Time
	QueueFrames int
	AgeTime     sim.Time
	// RED enables random early detection on every output queue (zero
	// value = pure tail drop).
	RED REDConfig
}

// REDConfig is a minimal RED (random early detection) profile for a port's
// output queue: once the instantaneous depth reaches MinFrames, an arriving
// frame is dropped with probability ramping linearly from 0 to MaxProb at
// MaxFrames; at or beyond MaxFrames every arrival is dropped. The point is
// what RED was invented for — desynchronizing competing AIMD flows and
// breaking the drop-tail lockout where one self-clocked flow wins every
// queue-full race. The zero value disables it; MaxFrames defaults to the
// queue capacity. Drops draw from the simulation's seeded PRNG, so runs
// stay deterministic.
type REDConfig struct {
	MinFrames int
	MaxFrames int
	MaxProb   float64
}

// SwitchStats counts fabric-level activity.
type SwitchStats struct {
	RxFrames  uint64 // frames received across all ports
	Forwarded uint64 // unicast frames sent out exactly one port
	Flooded   uint64 // broadcast/multicast/unknown-destination frames
	Dropped   uint64 // tail drops across all output queues
	Filtered  uint64 // unicast frames whose owner is the ingress port
	RxErrors  uint64 // malformed frames discarded at ingress
	Learned   uint64 // MAC-table inserts or moves
	Aged      uint64 // MAC-table entries expired by aging
	PipeDrops uint64 // frames dropped by port pipelines
	Steered   uint64 // frames whose egress a pipeline chose directly
}

// PortStats counts one port's activity.
type PortStats struct {
	RxFrames  uint64
	TxFrames  uint64
	TxBytes   uint64
	Drops     uint64 // output-queue drops (tail and RED together)
	REDDrops  uint64 // the subset of Drops RED chose early
	PipeDrops uint64 // frames a pipeline on this port dropped
}

// PortPipeline is a match-action program installable on a switch port (the
// fabric plane implements it). ProcessFrame inspects the frame — switch
// frames are shared with every attachment on the wire, so implementations
// must treat b as read-only — and returns whether to drop it, a port index
// to steer it out (-1 for none; ingress side only), and the program's
// execution cost, which the CPU-less switch folds into forwarding latency.
type PortPipeline interface {
	ProcessFrame(b []byte) (drop bool, steer int, cost sim.Time)
}

type macEntry struct {
	port    *Port
	expires sim.Time
}

// Switch is a learning store-and-forward switch joining Links.
type Switch struct {
	sim     *sim.Sim
	name    string
	model   Model
	latency sim.Time
	qcap    int
	ageTime sim.Time
	red     REDConfig

	ports   []*Port
	macs    map[view.MAC]macEntry
	stats   SwitchStats
	jobFree *swJob
	inLabel string
}

// Port is one switch port: the attachment point joining the fabric to a
// cable. The port's transmitter state is independent of the cable's
// NIC-transmit direction, so a host↔switch cable is full-duplex.
type Port struct {
	sw   *Switch
	id   int
	link *Link
	// model is the port's wire model — the switch's fabric model for local
	// cables, or a per-port override for long-haul uplinks.
	model Model
	// busyUntil is when the port's transmitter frees.
	busyUntil sim.Time
	// departs[head:] are the scheduled departure instants of frames still
	// in the output queue (in FIFO order); entries at or before "now" have
	// left the wire. The slice is compacted in place so steady-state
	// queueing allocates nothing.
	departs []sim.Time
	head    int
	stats   PortStats
	// inPipe/outPipe are the port's optional match-action programs, run at
	// frame ingress (drop/steer before the MAC lookup) and egress (drop
	// before queue admission).
	inPipe  PortPipeline
	outPipe PortPipeline
}

// swJob carries one frame from a cable to the switch's ingress processing
// without a per-delivery closure; jobs are pooled on the switch.
type swJob struct {
	port *Port
	f    *frame
	next *swJob
}

// NewSwitch creates an empty switch whose ports all run the given device
// model (wire rate, propagation, minimum frame).
func NewSwitch(s *sim.Sim, name string, model Model, cfg SwitchConfig) *Switch {
	if cfg.Latency == 0 {
		cfg.Latency = DefaultSwitchLatency
	}
	if cfg.QueueFrames == 0 {
		cfg.QueueFrames = DefaultPortQueueFrames
	}
	if cfg.AgeTime == 0 {
		cfg.AgeTime = DefaultMACAgeTime
	}
	if cfg.RED.MaxProb > 0 && cfg.RED.MaxFrames == 0 {
		cfg.RED.MaxFrames = cfg.QueueFrames
	}
	return &Switch{
		sim:     s,
		name:    name,
		model:   model,
		latency: cfg.Latency,
		qcap:    cfg.QueueFrames,
		ageTime: cfg.AgeTime,
		red:     cfg.RED,
		macs:    make(map[view.MAC]macEntry),
		inLabel: "switch:" + name,
	}
}

// Name returns the switch name.
func (sw *Switch) Name() string { return sw.name }

// Stats returns a snapshot of fabric counters.
func (sw *Switch) Stats() SwitchStats { return sw.stats }

// Ports returns the attached ports in attachment order.
func (sw *Switch) Ports() []*Port { return sw.ports }

// AttachLink creates a new port and joins it to cable l. Everything already
// on the cable (typically one host NIC) becomes reachable through the fabric.
func (sw *Switch) AttachLink(l *Link) *Port {
	return sw.AttachLinkModel(l, sw.model)
}

// AttachLinkModel attaches a cable whose port runs its own wire model — a
// long-haul uplink hanging off an otherwise local fabric. Serialization and
// propagation on this port follow model; the fabric latency and queue bounds
// stay the switch's.
func (sw *Switch) AttachLinkModel(l *Link, model Model) *Port {
	p := &Port{sw: sw, id: len(sw.ports), link: l, model: model}
	sw.ports = append(sw.ports, p)
	l.atts = append(l.atts, p)
	return p
}

// ID returns the port's index on its switch.
func (p *Port) ID() int { return p.id }

// Stats returns a snapshot of the port's counters.
func (p *Port) Stats() PortStats { return p.stats }

// SetIngressPipeline installs (or clears, with nil) the port's ingress
// match-action program, run on every frame arriving on this port before the
// MAC-table lookup.
func (p *Port) SetIngressPipeline(pipe PortPipeline) { p.inPipe = pipe }

// SetEgressPipeline installs (or clears, with nil) the port's egress
// match-action program, run on every frame bound for this port's output
// queue (including floods).
func (p *Port) SetEgressPipeline(pipe PortPipeline) { p.outPipe = pipe }

// QueueDrops sums tail drops across every port — the scale experiments'
// congestion signal.
func (sw *Switch) QueueDrops() uint64 { return sw.stats.Dropped }

// QueueCap returns the per-port output queue bound in frames.
func (sw *Switch) QueueCap() int { return sw.qcap }

// QueueDepth reports how many frames sit in the port's output queue at now —
// scheduled departures still in the future. Read-only (the enqueue path owns
// ring compaction), so the telemetry probe can sample it at any instant.
func (p *Port) QueueDepth(now sim.Time) int {
	n := 0
	for i := p.head; i < len(p.departs); i++ {
		if p.departs[i] > now {
			n++
		}
	}
	return n
}

// deliverAt implements attachment: the frame's last bit lands on the ingress
// port at time at; processing (learning, lookup, enqueue) happens then.
func (p *Port) deliverAt(at sim.Time, f *frame) {
	f.refs++
	sw := p.sw
	j := sw.jobFree
	if j != nil {
		sw.jobFree = j.next
		j.next = nil
	} else {
		j = &swJob{}
	}
	j.port = p
	j.f = f
	sw.sim.AtArg(at, sw.inLabel, switchIngress, j)
}

// switchIngress is the ingress-processing body, a package-level func so that
// scheduling it never allocates a closure.
func switchIngress(a any) {
	j := a.(*swJob)
	p, f := j.port, j.f
	sw := p.sw
	j.port = nil
	j.f = nil
	j.next = sw.jobFree
	sw.jobFree = j

	now := sw.sim.Now()
	p.stats.RxFrames++
	sw.stats.RxFrames++
	eth, err := view.Ethernet(f.buf)
	if err != nil {
		sw.stats.RxErrors++
		releaseFrame(f)
		return
	}
	// Learn the sender's address on the ingress port (never a group
	// address: those are destinations only).
	if src := eth.Src(); !src.IsMulticast() {
		e, ok := sw.macs[src]
		if !ok || e.port != p {
			sw.stats.Learned++
		}
		e.port = p
		e.expires = now + sw.ageTime
		sw.macs[src] = e
	}
	// The port's ingress program runs before the MAC lookup: it may drop the
	// frame, steer it out a specific port, or just cost time — the switch
	// has no CPU, so pipeline execution is modelled as added latency.
	if p.inPipe != nil {
		drop, steer, cost := p.inPipe.ProcessFrame(f.buf)
		if drop {
			p.stats.PipeDrops++
			sw.stats.PipeDrops++
			releaseFrame(f)
			return
		}
		now += cost
		if steer >= 0 && steer < len(sw.ports) && sw.ports[steer] != p {
			sw.stats.Steered++
			sw.ports[steer].enqueue(now, f)
			releaseFrame(f)
			return
		}
	}
	dst := eth.Dst()
	if dst.IsBroadcast() || dst.IsMulticast() {
		sw.flood(now, p, f)
	} else if e, ok := sw.macs[dst]; ok && now <= e.expires {
		if e.port == p {
			// Destination lives on the ingress segment; nothing to do.
			sw.stats.Filtered++
		} else {
			sw.stats.Forwarded++
			e.port.enqueue(now, f)
		}
	} else {
		if ok {
			delete(sw.macs, dst)
			sw.stats.Aged++
		}
		sw.flood(now, p, f)
	}
	releaseFrame(f)
}

// flood enqueues f on every port except the ingress.
func (sw *Switch) flood(now sim.Time, in *Port, f *frame) {
	sw.stats.Flooded++
	for _, p := range sw.ports {
		if p != in {
			p.enqueue(now, f)
		}
	}
}

// enqueue admits f to the port's output queue (tail-dropping when full),
// models store-and-forward latency plus serialization on the port's
// transmitter, and delivers the frame to everything on the cable.
func (p *Port) enqueue(now sim.Time, f *frame) {
	// The port's egress program filters queue admission; steering is an
	// ingress-side concept and is ignored here.
	if p.outPipe != nil {
		drop, _, cost := p.outPipe.ProcessFrame(f.buf)
		if drop {
			p.stats.PipeDrops++
			p.sw.stats.PipeDrops++
			return
		}
		now += cost
	}
	// A down cable (pulled, port flapped) discards egress silently, just
	// as it does for the host-transmit direction.
	if !p.link.up {
		p.link.downDrops++
		return
	}
	// Retire entries whose frames have left the wire by now.
	for p.head < len(p.departs) && p.departs[p.head] <= now {
		p.head++
	}
	if p.head == len(p.departs) {
		p.departs = p.departs[:0]
		p.head = 0
	}
	depth := len(p.departs) - p.head
	if depth >= p.sw.qcap {
		p.stats.Drops++
		p.sw.stats.Dropped++
		return
	}
	if red := p.sw.red; red.MaxProb > 0 && depth >= red.MinFrames {
		prob := red.MaxProb
		if depth < red.MaxFrames {
			prob *= float64(depth-red.MinFrames) / float64(red.MaxFrames-red.MinFrames)
		}
		if p.sw.sim.Rand().Float64() < prob {
			p.stats.Drops++
			p.stats.REDDrops++
			p.sw.stats.Dropped++
			return
		}
	}
	size := len(f.buf)
	start := now + p.sw.latency
	if p.busyUntil > start {
		start = p.busyUntil
	}
	ser := p.model.serialization(size)
	depart := start + ser
	p.busyUntil = depart
	p.link.busy += ser
	if p.head > 0 && len(p.departs) == cap(p.departs) {
		// Compact in place instead of growing: bounded queues must not
		// accumulate retired slots under sustained overload.
		n := copy(p.departs, p.departs[p.head:])
		p.departs = p.departs[:n]
		p.head = 0
	}
	p.departs = append(p.departs, depart)
	p.stats.TxFrames++
	p.stats.TxBytes += uint64(size)
	p.link.frames++
	p.link.bytes += uint64(size)
	arrival := depart + p.model.PropDelay
	for _, dst := range p.link.atts {
		if dst != attachment(p) {
			dst.deliverAt(arrival, f)
		}
	}
}

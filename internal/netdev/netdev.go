// Package netdev models the three network devices of the paper's testbed
// (§4): a 10Mb/s Ethernet, a 155Mb/s Fore TCA-100 ATM interface whose
// programmed I/O limits deliverable bandwidth to ~53Mb/s, and a 45Mb/s DEC T3
// adapter that uses DMA. A NIC charges driver and I/O costs to the simulated
// CPU, serializes frames onto a shared link, and delivers arrivals as
// interrupt-priority work that raises the device's PacketRecv event — the
// bottom of the Plexus protocol graph.
package netdev

import (
	"fmt"

	"plexus/internal/event"
	"plexus/internal/mbuf"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// Model describes a device type: wire characteristics plus driver costs.
type Model struct {
	// Name labels the device type ("ethernet", "fore-atm", "dec-t3").
	Name string
	// BitsPerSec is the wire signalling rate.
	BitsPerSec int64
	// PropDelay is one-way propagation (cabling + switch) latency.
	PropDelay sim.Time
	// MTU is the largest frame payload (bytes after the Ethernet header).
	MTU int
	// MinFrame pads short frames to the medium's minimum (Ethernet: 64B).
	MinFrame int
	// TxDriver/RxDriver are fixed per-packet driver costs.
	TxDriver sim.Time
	RxDriver sim.Time
	// IntrEntry is the interrupt entry/exit overhead on receive.
	IntrEntry sim.Time
	// PIOPerByte, when nonzero, models programmed I/O: the CPU moves every
	// byte to (and from) the adapter itself. DMA devices leave it zero.
	PIOPerByte sim.Time
	// MaxBacklog bounds the transmit queue: a frame that would have to
	// wait longer than this for the wire is dropped (interface-queue
	// overflow), as when offered load exceeds link capacity.
	MaxBacklog sim.Time
}

// EthernetModel is the paper's 10Mb/s private Ethernet segment.
func EthernetModel() Model {
	return Model{
		Name:       "ethernet",
		BitsPerSec: 10_000_000,
		PropDelay:  1 * sim.Microsecond,
		MTU:        1500,
		MinFrame:   64,
		TxDriver:   44 * sim.Microsecond,
		RxDriver:   44 * sim.Microsecond,
		IntrEntry:  10 * sim.Microsecond,
		MaxBacklog: 60 * sim.Millisecond, // ~50 full frames, BSD ifq_maxlen
	}
}

// ForeATMModel is the 155Mb/s Fore TCA-100 on TurboChannel. Programmed I/O
// makes the CPU copy every byte; with these costs two drivers moving data
// reliably top out near the paper's 53Mb/s.
func ForeATMModel() Model {
	return Model{
		Name:       "fore-atm",
		BitsPerSec: 155_000_000,
		PropDelay:  2 * sim.Microsecond, // through the ForeRunner switch
		MTU:        9180,
		TxDriver:   26 * sim.Microsecond,
		RxDriver:   26 * sim.Microsecond,
		IntrEntry:  10 * sim.Microsecond,
		PIOPerByte: 140 * sim.Nanosecond,
		MaxBacklog: 25 * sim.Millisecond,
	}
}

// DECT3Model is the experimental 45Mb/s DEC T3 adapter, DMA-based,
// back-to-back connected.
func DECT3Model() Model {
	return Model{
		Name:       "dec-t3",
		BitsPerSec: 45_000_000,
		PropDelay:  1 * sim.Microsecond,
		MTU:        4470,
		TxDriver:   22 * sim.Microsecond,
		RxDriver:   22 * sim.Microsecond,
		IntrEntry:  10 * sim.Microsecond,
		MaxBacklog: 40 * sim.Millisecond, // ~50 max-size frames
	}
}

// FastDriver returns a copy of m with the reduced driver costs of the paper's
// "faster device driver" experiment (§4.1: 337µs Ethernet, 241µs ATM RTT).
func FastDriver(m Model) Model {
	m.TxDriver /= 2
	m.RxDriver /= 2
	m.IntrEntry /= 2
	m.Name += "-fastdrv"
	return m
}

// serialization returns the wire occupancy of an n-byte frame.
func (m Model) serialization(n int) sim.Time {
	if n < m.MinFrame {
		n = m.MinFrame
	}
	return sim.Time(int64(n) * 8 * int64(sim.Second) / m.BitsPerSec)
}

// attachment is anything a Link can deliver wire frames to: a host NIC or a
// switch port. deliverAt is called synchronously by the transmitter with the
// (possibly future) arrival instant of the frame's last bit; the attachment
// takes its own frame reference if it keeps the snapshot.
type attachment interface {
	deliverAt(at sim.Time, f *frame)
}

// Link is one collision/delivery domain: a shared broadcast segment (the
// paper's private Ethernet), a back-to-back cable, or — in switched
// topologies — the cable joining one host to one switch port. The
// NIC-transmit direction is a serial resource: a frame transmits only when
// the previous NIC frame has left the wire. A switch port transmitting back
// down the same cable keeps its own transmitter state (see Port), so a
// host↔switch cable is full-duplex.
type Link struct {
	sim       *sim.Sim
	name      string
	atts      []attachment
	busyUntil sim.Time
	frames    uint64
	bytes     uint64
	busy      sim.Time
	dropped   uint64
	// up is the carrier state: a down link (cable pulled, switch port
	// flapped) silently discards every frame offered to it.
	up         bool
	downDrops  uint64
	duplicated uint64
	// liveFrames counts wire snapshots currently held (in flight or pending
	// receive interrupts); at quiescence it must return to zero.
	liveFrames int
	// dropFn, when set, is consulted per frame; true drops it on the wire.
	dropFn func(wire []byte) bool
	// mangleFn, when set, may corrupt each frame's bytes in flight.
	mangleFn func(wire []byte)
	// delayFn, when set, adds per-frame extra propagation delay; unequal
	// delays reorder deliveries.
	delayFn func(wire []byte) sim.Time
	// dupFn, when set, is consulted per frame; true delivers the frame twice
	// to every receiver (a duplicating network path).
	dupFn func(wire []byte) bool
	// freeFrames recycles wire-snapshot buffers so steady-state transmission
	// allocates nothing.
	freeFrames *frame
}

// frame is one reference-counted wire snapshot: the transmitter fills it, each
// accepting receiver holds a reference, and the last release recycles it onto
// the originating link's free list. The owner pointer matters in switched
// topologies, where a frame crosses several links before its last release.
type frame struct {
	buf   []byte
	refs  int
	owner *Link
	// span carries the packet-lifecycle trace ID across the wire: the real
	// frame bytes have no room for it, but the wire snapshot is simulator
	// state, so the receiver can re-stamp its private copy with the
	// sender's ID and one span follows the packet end to end.
	span uint64
	next *frame
}

// getFrame returns a frame sized to size with the creator's reference held.
func (l *Link) getFrame(size int) *frame {
	f := l.freeFrames
	if f != nil {
		l.freeFrames = f.next
		f.next = nil
	} else {
		f = &frame{}
	}
	if cap(f.buf) < size {
		f.buf = make([]byte, size)
	}
	f.buf = f.buf[:size]
	f.refs = 1
	f.owner = l
	l.liveFrames++
	return f
}

// releaseFrame drops one reference, recycling the frame onto its owning
// link's free list when the last reference is gone.
func releaseFrame(f *frame) {
	f.refs--
	if f.refs > 0 {
		return
	}
	l := f.owner
	l.liveFrames--
	f.next = l.freeFrames
	l.freeFrames = f
}

// SetDropFn installs a loss-injection predicate: frames for which fn returns
// true vanish on the wire. Tests use this to exercise retransmission.
func (l *Link) SetDropFn(fn func(wire []byte) bool) { l.dropFn = fn }

// SetMangleFn installs a corruption hook: fn may modify each frame's bytes in
// flight. Tests use this to exercise checksum validation.
func (l *Link) SetMangleFn(fn func(wire []byte)) { l.mangleFn = fn }

// SetDelayFn installs a jitter hook: fn returns extra propagation delay per
// frame. Unequal delays reorder deliveries, exercising receivers'
// out-of-order paths.
func (l *Link) SetDelayFn(fn func(wire []byte) sim.Time) { l.delayFn = fn }

// SetDupFn installs a duplication hook: frames for which fn returns true are
// delivered twice to every receiver, as on a network path that replays
// packets.
func (l *Link) SetDupFn(fn func(wire []byte) bool) { l.dupFn = fn }

// Dropped reports how many frames the loss injector discarded.
func (l *Link) Dropped() uint64 { return l.dropped }

// SetUp raises or cuts the link carrier. While down, every offered frame is
// silently discarded (counted by DownDrops); receivers see nothing.
func (l *Link) SetUp(up bool) { l.up = up }

// DownDrops reports how many frames were discarded because the link was down.
func (l *Link) DownDrops() uint64 { return l.downDrops }

// Duplicated reports how many frames the duplication hook replayed.
func (l *Link) Duplicated() uint64 { return l.duplicated }

// LiveFrames reports wire snapshots currently referenced (in flight or
// awaiting a receive interrupt). A quiesced simulation must report zero —
// the frame-pool balance check chaos tests rely on.
func (l *Link) LiveFrames() int { return l.liveFrames }

// NewLink creates an empty link with the carrier up.
func NewLink(s *sim.Sim, name string) *Link {
	return &Link{sim: s, name: name, up: true}
}

// Frames reports how many frames crossed the link.
func (l *Link) Frames() uint64 { return l.frames }

// Bytes reports how many frame bytes crossed the link.
func (l *Link) Bytes() uint64 { return l.bytes }

// BusyTime reports the accumulated serialization time of every frame that
// crossed the link — utilization over a window is the busy-time delta over
// the window length.
func (l *Link) BusyTime() sim.Time { return l.busy }

// NICStats counts per-device activity.
type NICStats struct {
	TxFrames   uint64
	TxBytes    uint64
	TxDrops    uint64 // transmit-queue overflows
	RxFrames   uint64
	RxBytes    uint64
	RxFiltered uint64 // well-formed frames dropped by the MAC address filter
	RxErrors   uint64 // malformed frames (truncated Ethernet header)
}

// NIC is one network interface on a host.
type NIC struct {
	sim    *sim.Sim
	cpu    *sim.CPU
	raiser event.Raiser
	pool   *mbuf.Pool
	model  Model
	name   string
	mac    view.MAC
	link   *Link
	// recvRef is the resolved receive event, raised (at interrupt
	// priority, after driver costs) for every frame that passes the MAC
	// filter.
	recvRef *event.Ref
	promisc bool
	stats   NICStats
	// rxLabel and jobFree back the allocation-free receive path: the task
	// label is materialized once and rx jobs are pooled.
	rxLabel string
	jobFree *rxJob
}

// rxJob carries a frame from the wire to the receive interrupt without a
// per-delivery closure; jobs are pooled on the NIC.
type rxJob struct {
	nic  *NIC
	f    *frame
	next *rxJob
}

// Config carries the per-NIC wiring.
type Config struct {
	CPU *sim.CPU
	// Raise delivers arrivals into the protocol graph; a bare Dispatcher
	// raises inline, a Stack may interpose thread handoff.
	Raise event.Raiser
	Pool  *mbuf.Pool
	// RecvRef must reference a declared event; the NIC raises it on
	// arrivals. It may be left nil and wired later with SetRecvRef when
	// the NIC is built before the layer that declares its receive event.
	RecvRef *event.Ref
	MAC     view.MAC
	// Promiscuous disables the MAC destination filter (the forwarder and
	// trace tools use it).
	Promiscuous bool
}

// SetRecvRef wires (or rewires) the NIC's receive event after construction.
func (n *NIC) SetRecvRef(r *event.Ref) { n.recvRef = r }

// NewNIC creates a NIC and attaches it to the link.
func NewNIC(s *sim.Sim, name string, model Model, link *Link, cfg Config) *NIC {
	n := &NIC{
		sim:     s,
		cpu:     cfg.CPU,
		raiser:  cfg.Raise,
		pool:    cfg.Pool,
		model:   model,
		name:    name,
		mac:     cfg.MAC,
		link:    link,
		recvRef: cfg.RecvRef,
		promisc: cfg.Promiscuous,
	}
	n.rxLabel = "rx:" + name
	link.atts = append(link.atts, n)
	return n
}

// MAC returns the hardware address.
func (n *NIC) MAC() view.MAC { return n.mac }

// MTU returns the device MTU.
func (n *NIC) MTU() int { return n.model.MTU }

// Stats returns a snapshot of device counters.
func (n *NIC) Stats() NICStats { return n.stats }

// Transmit queues the frame m (a complete Ethernet frame, consumed by the
// call) for transmission, charging the sending task for driver work and, on
// PIO devices, for moving every byte to the adapter. The frame is copied onto
// the wire when the link is free and delivered to every other NIC after
// serialization and propagation.
func (n *NIC) Transmit(t *sim.Task, m *mbuf.Mbuf) error {
	if m.Hdr() == nil {
		return fmt.Errorf("netdev %s: transmit of non-packet mbuf", n.name)
	}
	size := m.PktLen()
	if size > n.model.MTU+view.EthernetHdrLen {
		m.Free()
		return fmt.Errorf("netdev %s: frame of %d bytes exceeds MTU %d", n.name, size, n.model.MTU)
	}
	// Stamp a lifecycle span at NIC entry if no upper layer already did:
	// from here the packet is traceable even when injected below the
	// protocol stack.
	if n.sim.MetricsEnabled() && m.Hdr().Span == 0 {
		m.Hdr().Span = n.sim.NextSpan()
	}
	span := m.Hdr().Span
	t.ChargeProf(sim.ProfDriver, n.name, n.model.TxDriver)
	t.ChargeBytesProf(sim.ProfCopy, n.name, size, n.model.PIOPerByte)
	// Carrier down: the driver ran, but the frame goes nowhere.
	if !n.link.up {
		n.link.downDrops++
		t.Hop(span, "wire", "drop-linkdown", size)
		if n.sim.TraceEnabled() {
			n.sim.Tracef(sim.TraceNet, "%s: link down, frame dropped", n.name)
		}
		m.Free()
		return nil
	}
	// Interface-queue overflow: when the wire backlog exceeds the queue
	// bound, the frame is dropped rather than queued forever.
	if n.model.MaxBacklog > 0 && n.link.busyUntil > t.Now()+n.model.MaxBacklog {
		n.stats.TxDrops++
		t.Hop(span, "wire", "drop-overflow", size)
		if n.sim.TraceEnabled() {
			n.sim.Tracef(sim.TraceNet, "%s: tx queue overflow, frame dropped", n.name)
		}
		m.Free()
		return nil
	}
	n.stats.TxFrames++
	n.stats.TxBytes += uint64(size)

	// The adapter contends for the wire: start when both the task has
	// finished its driver work and the link is free.
	start := t.Now()
	if n.link.busyUntil > start {
		start = n.link.busyUntil
	}
	ser := n.model.serialization(size)
	depart := start + ser
	n.link.busyUntil = depart
	n.link.busy += ser
	arrival := depart + n.model.PropDelay
	n.link.frames++
	n.link.bytes += uint64(size)
	if n.sim.TraceEnabled() {
		n.sim.Tracef(sim.TraceNet, "%s: tx %dB depart=%v arrive=%v", n.name, size, depart, arrival)
	}

	t.Hop(span, "wire", "tx", size)

	// Snapshot the wire bytes once into a recycled frame; every receiver
	// views the same immutable snapshot, as if from its own receive ring.
	f := n.link.getFrame(size)
	f.span = span
	err := m.CopyTo(0, f.buf)
	m.Free()
	if err != nil {
		releaseFrame(f)
		return err
	}
	if n.link.mangleFn != nil {
		n.link.mangleFn(f.buf)
	}
	if n.link.dropFn != nil && n.link.dropFn(f.buf) {
		n.link.dropped++
		t.Hop(span, "wire", "drop-loss", size)
		releaseFrame(f)
		if n.sim.TraceEnabled() {
			n.sim.Tracef(sim.TraceNet, "%s: frame dropped by loss injector", n.name)
		}
		return nil
	}
	if n.link.delayFn != nil {
		arrival += n.link.delayFn(f.buf)
	}
	dup := n.link.dupFn != nil && n.link.dupFn(f.buf)
	if dup {
		n.link.duplicated++
	}
	for _, dst := range n.link.atts {
		if dst == attachment(n) {
			continue
		}
		dst.deliverAt(arrival, f)
		if dup {
			// The replay occupies the wire for its own serialization time,
			// so a duplicate can never beat its original through a FIFO
			// queue — two frames cannot end at the same instant.
			dst.deliverAt(arrival+ser, f)
		}
	}
	releaseFrame(f) // drop the creator's reference
	return nil
}

// deliverAt schedules frame arrival: the MAC filter runs "in hardware", then
// accepted frames cost an interrupt plus driver work (plus PIO reads) on the
// receiving CPU and are raised into the protocol graph. The frame reference
// is taken synchronously; the pooled rx job releases it after copying.
func (n *NIC) deliverAt(at sim.Time, f *frame) {
	// Frames too short to carry an Ethernet header are frame errors, not
	// filter drops — the distinction matters when triaging loss.
	eth, err := view.Ethernet(f.buf)
	if err != nil {
		n.stats.RxErrors++
		return
	}
	// MAC destination filter (unless promiscuous).
	if !n.promisc {
		dst := eth.Dst()
		if dst != n.mac && !dst.IsBroadcast() && !dst.IsMulticast() {
			n.stats.RxFiltered++
			return
		}
	}
	f.refs++
	j := n.jobFree
	if j != nil {
		n.jobFree = j.next
		j.next = nil
	} else {
		j = &rxJob{nic: n}
	}
	j.f = f
	n.cpu.SubmitAtArg(at, sim.PrioInterrupt, n.rxLabel, nicRx, j)
}

// nicRx is the receive-interrupt body. It is a package-level func so that
// scheduling it (see deliverAt) never allocates a closure.
func nicRx(t *sim.Task, a any) {
	j := a.(*rxJob)
	n, f := j.nic, j.f
	j.f = nil
	j.next = n.jobFree
	n.jobFree = j
	wire := f.buf
	t.ChargeProf(sim.ProfTrap, n.name, n.model.IntrEntry)
	t.ChargeProf(sim.ProfDriver, n.name, n.model.RxDriver)
	t.ChargeBytesProf(sim.ProfCopy, n.name, len(wire), n.model.PIOPerByte)
	m := n.pool.FromBytes(wire, 0)
	n.stats.RxFrames++
	n.stats.RxBytes += uint64(len(wire))
	m.Hdr().Span = f.span // sender's lifecycle span survives the wire
	releaseFrame(f)       // the packet owns a private copy now
	m.Hdr().RcvIf = n.name
	m.Hdr().Timestamp = int64(t.Now())
	t.Hop(m.Hdr().Span, "wire", "rx", len(wire))
	if eth, err := view.Ethernet(m.Bytes()); err == nil {
		d := eth.Dst()
		m.Hdr().Multicast = d.IsBroadcast() || d.IsMulticast()
	}
	// Received packets are read-only through the graph (§3.4).
	m.SetReadOnly()
	if n.raiser.RaiseRef(t, n.recvRef, m) == 0 {
		if n.sim.TraceEnabled() {
			n.sim.Tracef(sim.TraceNet, "%s: frame with no handler, dropped", n.name)
		}
		m.Free()
	}
}

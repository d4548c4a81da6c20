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
	"plexus/internal/osmodel"
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
// host↔switch cable is full-duplex. The zero Link is a perfect wire.
type Link struct {
	atts      []attachment
	busyUntil sim.Time
	frames    uint64
	bytes     uint64
	busy      sim.Time
	// drops counts the frames imp discarded: lost on the wire, or offered
	// while the carrier was cut.
	drops uint64
	imp   Impairment
	// liveFrames counts wire snapshots currently held (in flight or pending
	// receive interrupts); at quiescence it must return to zero.
	liveFrames int
	// freeFrames recycles wire-snapshot buffers so steady-state transmission
	// allocates nothing.
	freeFrames *frame
}

// Impairment is a link's fault plane: it owns the carrier state and decides
// what happens to each transmitted frame. internal/fault's Injector is the
// implementation; the zero Link has none.
type Impairment interface {
	// Down reports whether the carrier is cut. It is asked once per frame
	// offered to the link by a NIC, a switch port or a boundary drain; a
	// frame offered to a cut carrier is discarded.
	Down() bool
	// Frame runs on each frame a NIC puts on the wire. It may corrupt wire
	// in place, and reports whether the frame is lost, the extra
	// propagation delay it suffers (unequal delays reorder deliveries), and
	// whether every receiver gets it twice.
	Frame(wire []byte) (lost bool, delay sim.Time, dup bool)
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

// Impair installs imp as the link's fault plane, replacing any earlier one;
// nil makes the link a perfect wire again.
func (l *Link) Impair(imp Impairment) { l.imp = imp }

// Dropped reports how many frames the impairment discarded: lost on the
// wire, or offered while the carrier was cut.
func (l *Link) Dropped() uint64 { return l.drops }

// down reports whether the carrier is cut, counting the frame offered to it
// as dropped if so.
func (l *Link) down() bool {
	if l.imp != nil && l.imp.Down() {
		l.drops++
		return true
	}
	return false
}

// LiveFrames reports wire snapshots currently referenced (in flight or
// awaiting a receive interrupt). A quiesced simulation must report zero —
// the frame-pool balance check chaos tests rely on.
func (l *Link) LiveFrames() int { return l.liveFrames }

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
	RxFiltered uint64 // well-formed frames dropped by the MAC address filter
	RxErrors   uint64 // malformed frames (truncated Ethernet header)
}

// NIC is one network interface on a host.
type NIC struct {
	// host supplies the simulator, the CPU that runs the receive interrupt,
	// the buffer pool, and the raise hand-off into the protocol graph.
	host  *osmodel.Host
	model Model
	name  string
	mac   view.MAC
	link  *Link
	// recvRef is the resolved receive event, raised (at interrupt
	// priority, after driver costs) for every frame that passes the MAC
	// filter.
	recvRef *event.Ref
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

// SetRecvRef wires (or rewires) the NIC's receive event, which it raises on
// arrivals; r must reference a declared event. The NIC is built before the
// layer that declares that event, so this follows construction.
func (n *NIC) SetRecvRef(r *event.Ref) { n.recvRef = r }

// NewNIC creates a NIC on host with hardware address mac and attaches it to
// the link.
func NewNIC(host *osmodel.Host, name string, model Model, link *Link, mac view.MAC) *NIC {
	n := &NIC{host: host, model: model, name: name, mac: mac, link: link}
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
	if s := n.host.Sim; s.MetricsEnabled() && m.Hdr().Span == 0 {
		m.Hdr().Span = s.NextSpan()
	}
	span := m.Hdr().Span
	t.ChargeProf(sim.ProfDriver, n.name, n.model.TxDriver)
	t.ChargeBytesProf(sim.ProfCopy, n.name, size, n.model.PIOPerByte)
	// Carrier down: the driver ran, but the frame goes nowhere.
	if n.link.down() {
		t.Hop(span, "wire", "drop-linkdown", size)
		m.Free()
		return nil
	}
	// Interface-queue overflow: when the wire backlog exceeds the queue
	// bound, the frame is dropped rather than queued forever.
	if n.model.MaxBacklog > 0 && n.link.busyUntil > t.Now()+n.model.MaxBacklog {
		n.stats.TxDrops++
		t.Hop(span, "wire", "drop-overflow", size)
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
	dup := false
	if imp := n.link.imp; imp != nil {
		lost, delay, twice := imp.Frame(f.buf)
		if lost {
			n.link.drops++
			t.Hop(span, "wire", "drop-loss", size)
			releaseFrame(f)
			return nil
		}
		arrival += delay
		dup = twice
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
	// MAC destination filter.
	if dst := eth.Dst(); dst != n.mac && !dst.IsBroadcast() && !dst.IsMulticast() {
		n.stats.RxFiltered++
		return
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
	n.host.CPU.SubmitAtArg(at, sim.PrioInterrupt, n.rxLabel, nicRx, j)
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
	m := n.host.Pool.FromBytes(wire, 0)
	n.stats.RxFrames++
	m.Hdr().Span = f.span // sender's lifecycle span survives the wire
	releaseFrame(f)       // the packet owns a private copy now
	t.Hop(m.Hdr().Span, "wire", "rx", len(wire))
	// Received packets are read-only through the graph (§3.4).
	m.SetReadOnly()
	n.host.RaiseRef(t, n.recvRef, m)
}

// Package seqpkt implements SPP, a sequenced packet protocol — not an
// implementation of an existing protocol, but a NEW one, which is the
// paper's headline capability: "An application might also benefit from a
// protocol that is specific to the application itself, rather than just an
// implementation of an existing protocol" (§1.1), supporting new protocols
// in the sense of [CSZ92].
//
// SPP is a reliable, ordered datagram protocol: every packet carries a
// sequence number and is acknowledged; the sender retransmits on timeout;
// the receiver delivers datagrams to the application in order, buffering a
// small window of out-of-order arrivals. It rides directly on IP with its
// own protocol number, installed into the protocol graph at runtime exactly
// like the built-in transports: a keyed entry on IP.PacketRecv demultiplexes
// on the protocol field, endpoints' keyed entries on ports, and the manager
// enforces the same anti-spoofing/anti-snooping policies.
package seqpkt

import (
	"errors"

	"plexus/internal/event"
	"plexus/internal/ip"
	"plexus/internal/mbuf"
	"plexus/internal/osmodel"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// IPProto is SPP's protocol number (from the unassigned range of the era).
const IPProto = 77

// RecvEvent carries validated SPP packets (IP header intact) to endpoints,
// keyed by port.
const RecvEvent event.Name = "SeqPkt.PacketRecv"

// Wire format, after the IP header:
//
//	srcPort  uint16
//	dstPort  uint16
//	type     uint8   (1 = DATA, 2 = ACK)
//	_        uint8   (reserved)
//	seq      uint32
//	checksum uint16  (internet checksum incl. pseudo-header)
//	payload  ...
const hdrLen = 12

const (
	typeData = 1
	typeAck  = 2
)

// Protocol timing and limits.
const (
	// RexmitTimeout is the retransmission interval.
	RexmitTimeout = 500 * sim.Millisecond
	// MaxRexmits bounds retransmissions before the send is abandoned.
	MaxRexmits = 8
	// maxOOO bounds out-of-order buffering per peer.
	maxOOO = 32
	// procCost is the per-packet protocol processing charge.
	procCost = 9 * sim.Microsecond
)

// Errors.
var (
	// ErrPortInUse reports a bind conflict.
	ErrPortInUse = errors.New("seqpkt: port in use")
	// ErrTooBig reports a payload exceeding one datagram.
	ErrTooBig = errors.New("seqpkt: payload too large")
)

// Stats counts manager-level activity.
type Stats struct {
	Duplicates  uint64
	BadChecksum uint64
}

// Manager is the SPP protocol manager for one host.
type Manager struct {
	sim   *sim.Sim
	ip    *ip.Layer
	disp  *event.Dispatcher
	raise event.Raiser
	// recvRef is the resolved RecvEvent handle for the per-packet path.
	recvRef *event.Ref
	cpu     *sim.CPU
	pool    *mbuf.Pool
	costs   osmodel.Costs

	stats Stats
	// hostName is the precomputed audit/telemetry label (the CPU name).
	hostName string
	// audit receives every send-lifecycle transition (nil = off); the
	// legality checker lives in internal/audit.
	audit TransitionSink
}

// Config wires a Manager.
type Config struct {
	Sim   *sim.Sim
	IP    *ip.Layer
	Disp  *event.Dispatcher
	Raise event.Raiser
	CPU   *sim.CPU
	Pool  *mbuf.Pool
	Costs osmodel.Costs
	// RequireEphemeral propagates the stack's interrupt-mode policy.
	RequireEphemeral bool
}

// Install creates the manager and installs the protocol into the graph —
// the runtime-extension act itself. It declares SeqPkt.PacketRecv and hangs
// the manager's keyed handler on IP.PacketRecv next to UDP's and TCP's.
func Install(cfg Config) (*Manager, error) {
	m := &Manager{
		sim:      cfg.Sim,
		ip:       cfg.IP,
		disp:     cfg.Disp,
		raise:    cfg.Raise,
		cpu:      cfg.CPU,
		pool:     cfg.Pool,
		costs:    cfg.Costs,
		hostName: cfg.CPU.Name(),
	}
	if err := cfg.Disp.Declare(RecvEvent, event.Options{RequireEphemeral: cfg.RequireEphemeral, Key: portKey, NoMatch: m.noPort}); err != nil {
		return nil, err
	}
	m.recvRef = cfg.Disp.Ref(RecvEvent)
	_, err := cfg.Disp.InstallKey(ip.RecvEvent, ip.RecvKey(IPProto, 0),
		event.Ephemeral("seqpkt.input", m.input), 0)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Stats returns a snapshot of counters.
func (m *Manager) Stats() Stats { return m.stats }

// MaxPayload returns the largest payload one SPP datagram carries.
func (m *Manager) MaxPayload() int {
	return m.ip.MTU() - view.IPv4MinHdrLen - hdrLen
}

// input validates an SPP packet and raises SeqPkt.PacketRecv.
func (m *Manager) input(t *sim.Task, pkt *mbuf.Mbuf) {
	t.ChargeProf(sim.ProfProto, "spp", procCost)
	if hdr := pkt.Hdr(); hdr != nil {
		t.Hop(hdr.Span, "spp", "recv", hdr.Len)
	}
	ipv, err := view.IPv4(pkt.Bytes())
	if err != nil {
		pkt.Free()
		return
	}
	hl := ipv.HdrLen()
	plen := ipv.TotalLen() - hl
	if plen < hdrLen {
		pkt.Free()
		return
	}
	t.ChargeBytesProf(sim.ProfChecksum, "spp", plen, m.costs.ChecksumPerByte)
	a := view.PseudoHeader(ipv.Src(), ipv.Dst(), IPProto, plen)
	if err := ip.ChecksumChain(&a, pkt, hl, plen); err != nil || a.Fold() != 0 {
		m.stats.BadChecksum++
		pkt.Free()
		return
	}
	m.raise.RaiseRef(t, m.recvRef, pkt)
}

// noPort is SeqPkt.PacketRecv's NoMatch action.
func (m *Manager) noPort(_ *sim.Task, pkt *mbuf.Mbuf) { pkt.Free() }

// portKey is RecvEvent's key extractor: the destination port of a packet
// carrying a whole SPP header (read with CopyTo: it may straddle mbufs).
func portKey(pkt *mbuf.Mbuf) (exact, wild event.Key, ok bool) {
	ipv, err := view.IPv4(pkt.Bytes())
	var p [4]byte
	ok = err == nil && ipv.TotalLen()-ipv.HdrLen() >= hdrLen && ipv.TotalLen() <= pkt.PktLen() &&
		pkt.CopyTo(ipv.HdrLen(), p[:]) == nil
	k := event.Key(p[2])<<8 | event.Key(p[3])
	return k, k, ok
}

// header is a parsed SPP packet.
type header struct {
	src     view.IP4
	srcPort uint16
	typ     uint8
	seq     uint32
	payload []byte
}

func parsePacket(pkt *mbuf.Mbuf) (header, bool) {
	ipv, err := view.IPv4(pkt.Bytes())
	if err != nil {
		return header{}, false
	}
	hl := ipv.HdrLen()
	raw, err := pkt.CopyData(hl, ipv.TotalLen()-hl)
	if err != nil || len(raw) < hdrLen {
		return header{}, false
	}
	return header{
		src:     ipv.Src(),
		srcPort: uint16(raw[0])<<8 | uint16(raw[1]),
		typ:     raw[4],
		seq:     uint32(raw[6])<<24 | uint32(raw[7])<<16 | uint32(raw[8])<<8 | uint32(raw[9]),
		payload: raw[hdrLen:],
	}, true
}

// send builds and transmits one SPP packet.
func (m *Manager) send(t *sim.Task, srcPort uint16, dst view.IP4, dstPort uint16, typ uint8, seq uint32, payload []byte) error {
	t.ChargeProf(sim.ProfProto, "spp", procCost)
	buf := make([]byte, hdrLen+len(payload))
	buf[0], buf[1] = byte(srcPort>>8), byte(srcPort)
	buf[2], buf[3] = byte(dstPort>>8), byte(dstPort)
	buf[4] = typ
	buf[6], buf[7], buf[8], buf[9] = byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq)
	copy(buf[hdrLen:], payload)
	t.ChargeBytesProf(sim.ProfChecksum, "spp", len(buf), m.costs.ChecksumPerByte)
	a := view.PseudoHeader(m.ip.Addr(), dst, IPProto, len(buf))
	a.Add(buf)
	c := a.Fold()
	buf[10], buf[11] = byte(c>>8), byte(c)
	pkt := m.pool.FromBytes(buf, 64)
	if s := t.Sim(); s.MetricsEnabled() {
		pkt.Hdr().Span = s.NextSpan()
		t.Hop(pkt.Hdr().Span, "spp", "send", pkt.Hdr().Len)
	}
	return m.ip.Send(t, view.IP4{}, dst, IPProto, pkt)
}

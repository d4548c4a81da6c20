// Package ip implements the IPv4 node of the Plexus protocol graph: header
// construction and validation, the Internet checksum over mbuf chains,
// fragmentation and reassembly, and a small host routing table (on-link
// destinations plus a default gateway).
//
// On receive, the layer installs a guard (EtherType == IPv4) and handler on
// Ethernet.PacketRecv; the handler validates the datagram and raises
// IP.PacketRecv with the IP header still intact, so that the next layer's
// keyed entries can demultiplex on the protocol field and destination port,
// and transport guards can see addresses — exactly the decision-tree
// structure of the paper's Figure 1.
package ip

import (
	"errors"
	"fmt"

	"plexus/internal/arp"
	"plexus/internal/ether"
	"plexus/internal/event"
	"plexus/internal/mbuf"
	"plexus/internal/osmodel"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// RecvEvent carries validated IPv4 datagrams (header intact) up the graph,
// to bindings keyed by RecvKey.
const RecvEvent event.Name = "IP.PacketRecv"

// RecvKey is the RecvEvent key of proto's datagrams to port; port 0 is the
// protocol's wildcard key. A transport holds its wildcard key, and another
// implementation takes a port from it by holding the port's key.
func RecvKey(proto uint8, port uint16) event.Key { return event.Key(proto)<<16 | event.Key(port) }

// recvKey is RecvEvent's key extractor: a TCP or UDP datagram's exact key
// names its destination port, 0 if it is too short to carry one, and any
// other datagram's is its protocol's wildcard key.
func recvKey(m *mbuf.Mbuf) (exact, wild event.Key, ok bool) {
	v, err := view.IPv4(m.Bytes())
	if err != nil {
		return 0, 0, false
	}
	var ports [4]byte // read with CopyTo: they may straddle mbufs
	if p := v.Proto(); p == view.IPProtoTCP || p == view.IPProtoUDP {
		_ = m.CopyTo(v.HdrLen(), ports[:]) // out of range, it leaves ports zero
	}
	return RecvKey(v.Proto(), uint16(ports[2])<<8|uint16(ports[3])), RecvKey(v.Proto(), 0), true
}

// SendEvent is raised (when observed) for every outgoing datagram.
const SendEvent event.Name = "IP.PacketSend"

// DefaultTTL is the initial time-to-live for locally originated datagrams.
const DefaultTTL = 64

// ReassemblyTimeout discards incomplete fragment sets.
const ReassemblyTimeout = 30 * sim.Second

// Errors.
var (
	// ErrNoRoute reports a destination with no on-link route or gateway.
	ErrNoRoute = errors.New("ip: no route to host")
	// ErrTooBig reports a datagram that cannot be fragmented (DF set or
	// fragment would be invalid).
	ErrTooBig = errors.New("ip: datagram too large")
)

// Stats counts IP activity.
type Stats struct {
	Sent          uint64
	Received      uint64
	Delivered     uint64
	BadChecksum   uint64
	BadHeader     uint64
	NotForUs      uint64
	FragmentsRcvd uint64
	Reassembled   uint64
	ReasmTimeouts uint64
	TTLExpired    uint64
}

// Layer is the IPv4 protocol node for one interface.
type Layer struct {
	host *osmodel.Host
	eth  *ether.Layer
	arp  *arp.ARP

	addr view.IP4
	mask view.IP4
	gw   view.IP4 // zero = no gateway

	ident     uint16
	reasm     map[reasmKey]*reasmBuf
	reasmFree *reasmBuf // recycled reassembly buffers (see freeReasmBuf)
	stats     Stats

	// recvRef/sendRef are the layer's resolved event handles for the
	// per-packet path.
	recvRef *event.Ref
	sendRef *event.Ref

	// forwardFn, when set, is offered datagrams addressed to other hosts
	// before they are dropped as NotForUs. Returning true consumes the
	// packet; returning false lets the normal drop accounting proceed.
	forwardFn func(t *sim.Task, m *mbuf.Mbuf) bool
}

// Config is what a Layer needs beyond its host: the interface below it and
// its addressing.
type Config struct {
	Ether *ether.Layer
	ARP   *arp.ARP
	Addr  view.IP4
	Mask  view.IP4
	// Gateway, if nonzero, routes off-link destinations.
	Gateway view.IP4
}

// New creates the IP node, declares IP.PacketRecv/IP.PacketSend, and installs
// the layer's guard/handler pair on Ethernet.PacketRecv.
func New(host *osmodel.Host, cfg Config) (*Layer, error) {
	l := &Layer{
		host:  host,
		eth:   cfg.Ether,
		arp:   cfg.ARP,
		addr:  cfg.Addr,
		mask:  cfg.Mask,
		gw:    cfg.Gateway,
		reasm: make(map[reasmKey]*reasmBuf),
	}
	if err := host.Disp.Declare(RecvEvent, event.Options{Key: recvKey, NoMatch: dropNoHandler}); err != nil {
		return nil, err
	}
	if err := host.Disp.Declare(SendEvent, event.Options{}); err != nil {
		return nil, err
	}
	l.recvRef = host.Disp.Ref(RecvEvent)
	l.sendRef = host.Disp.Ref(SendEvent)
	_, err := cfg.Ether.InstallRecv(
		ether.TypeGuard(view.EtherTypeIPv4),
		event.Ephemeral("ip.input", l.input),
		0,
	)
	if err != nil {
		return nil, err
	}
	return l, nil
}

// Addr returns the interface's IP address.
func (l *Layer) Addr() view.IP4 { return l.addr }

// Stats returns a snapshot of counters.
func (l *Layer) Stats() Stats { return l.stats }

// MTU returns the layer's maximum datagram size (link MTU).
func (l *Layer) MTU() int { return l.eth.MTU() }

// ChecksumChain folds bytes [off, off+n) of packet m into a.
func ChecksumChain(a *view.Accum, m *mbuf.Mbuf, off, n int) error {
	if off < 0 || n < 0 || off+n > m.PktLen() {
		return mbuf.ErrRange
	}
	for mm := m; mm != nil && n > 0; mm = mm.Next() {
		if off >= mm.Len() {
			off -= mm.Len()
			continue
		}
		b := mm.Bytes()[off:]
		if len(b) > n {
			b = b[:n]
		}
		a.Add(b)
		n -= len(b)
		off = 0
	}
	return nil
}

// SetForwardFn installs the host-forwarding hook: datagrams that arrive for
// another host are handed to fn instead of being dropped. A gateway host uses
// this to splice its interfaces together; fn receives the full datagram
// (header at offset 0, read-only) and reports whether it consumed it.
func (l *Layer) SetForwardFn(fn func(t *sim.Task, m *mbuf.Mbuf) bool) {
	l.forwardFn = fn
}

// OnLink reports whether dst is directly reachable through this interface.
func (l *Layer) OnLink(dst view.IP4) bool { return l.onLink(dst) }

// onLink reports whether dst is directly reachable.
func (l *Layer) onLink(dst view.IP4) bool {
	for i := range dst {
		if dst[i]&l.mask[i] != l.addr[i]&l.mask[i] {
			return false
		}
	}
	return true
}

// nextHop selects the neighbour to forward dst through.
func (l *Layer) nextHop(dst view.IP4) (view.IP4, error) {
	if dst.IsBroadcast() || dst.IsMulticast() || l.onLink(dst) {
		return dst, nil
	}
	if l.gw != (view.IP4{}) {
		return l.gw, nil
	}
	return view.IP4{}, fmt.Errorf("%w: %v", ErrNoRoute, dst)
}

// Send transmits payload m (consumed) as an IPv4 datagram from src to dst.
// A zero src is overwritten with the interface address (the anti-spoofing
// "overwrite" policy); transports that verify instead pass an explicit src
// which must equal the interface address.
func (l *Layer) Send(t *sim.Task, src, dst view.IP4, proto uint8, m *mbuf.Mbuf) error {
	t.ChargeProf(sim.ProfProto, "ip", l.host.Costs.IPProc)
	if src == (view.IP4{}) {
		src = l.addr
	} else if src != l.addr {
		m.Free()
		return fmt.Errorf("ip: spoofed source %v (interface is %v)", src, l.addr)
	}
	nh, err := l.nextHop(dst)
	if err != nil {
		m.Free()
		return err
	}
	mtu := l.eth.MTU()
	l.ident++
	id := l.ident
	if view.IPv4MinHdrLen+m.PktLen() <= mtu {
		return l.sendFragment(t, src, dst, proto, id, 0, false, m, nh)
	}
	// Fragment: each piece is a copy of its payload range, built straight
	// from the source chain into pool mbufs.
	maxPayload := (mtu - view.IPv4MinHdrLen) &^ 7
	total := m.PktLen()
	for off := 0; off < total; off += maxPayload {
		n := maxPayload
		last := false
		if off+n >= total {
			n = total - off
			last = true
		}
		frag, err := l.host.Pool.CopyRange(m, off, n, 64)
		if err != nil {
			m.Free()
			return err
		}
		t.ChargeBytes(n, l.host.Costs.RAMPerByte)
		if err := l.sendFragment(t, src, dst, proto, id, off, !last, frag, nh); err != nil {
			m.Free()
			return err
		}
	}
	m.Free()
	return nil
}

// sendFragment prepends and fills one IP header and hands the result to ARP.
func (l *Layer) sendFragment(t *sim.Task, src, dst view.IP4, proto uint8, id uint16, fragOff int, more bool, m *mbuf.Mbuf, nextHop view.IP4) error {
	dm, err := m.Prepend(view.IPv4MinHdrLen)
	if err != nil {
		m.Free()
		return fmt.Errorf("ip: %w", err)
	}
	b, err := dm.MutableBytes()
	if err != nil {
		dm.Free()
		return fmt.Errorf("ip: %w", err)
	}
	raw := b[:view.IPv4MinHdrLen]
	raw[0] = 0x45 // version 4, IHL 5
	v, err := view.IPv4(raw)
	if err != nil {
		dm.Free()
		return err
	}
	v.SetTOS(0)
	v.SetTotalLen(dm.PktLen())
	v.SetID(id)
	flags := uint16(0)
	if more {
		flags |= view.IPFlagMF
	}
	v.SetFlagsFrag(flags, fragOff)
	v.SetTTL(DefaultTTL)
	v.SetProto(proto)
	v.SetSrc(src)
	v.SetDst(dst)
	v.ComputeChecksum()
	t.ChargeBytesProf(sim.ProfChecksum, "ip", view.IPv4MinHdrLen, l.host.Costs.ChecksumPerByte)
	l.stats.Sent++
	if hdr := dm.Hdr(); hdr != nil {
		t.Hop(hdr.Span, "ip", "send", hdr.Len)
	}
	if l.sendRef.HandlerCount() > 0 {
		l.sendRef.Raise(t, dm) // inline on every boundary: the send path owns dm
	}
	return l.arp.Send(t, nextHop, view.EtherTypeIPv4, dm)
}

// Forward transmits an already-formed IPv4 datagram m (consumed; header at
// offset 0). The in-kernel packet forwarder uses this after rewriting
// addresses: the datagram re-enters the graph below IP, exactly as a
// redirected packet should.
func (l *Layer) Forward(t *sim.Task, m *mbuf.Mbuf) error {
	t.ChargeProf(sim.ProfProto, "ip", l.host.Costs.IPProc)
	if hdr := m.Hdr(); hdr != nil {
		t.Hop(hdr.Span, "ip", "forward", hdr.Len)
	}
	v, err := view.IPv4(m.Bytes())
	if err != nil {
		m.Free()
		return err
	}
	nh, err := l.nextHop(v.Dst())
	if err != nil {
		m.Free()
		return err
	}
	l.stats.Sent++
	return l.arp.Send(t, nh, view.EtherTypeIPv4, m)
}

// input is the guard-selected handler on Ethernet.PacketRecv: validate the
// datagram, reassemble fragments, and raise IP.PacketRecv.
func (l *Layer) input(t *sim.Task, m *mbuf.Mbuf) {
	t.ChargeProf(sim.ProfProto, "ip", l.host.Costs.IPProc)
	l.stats.Received++
	m.Adj(view.EthernetHdrLen) // strip link header; window op, legal on read-only chains
	dm, err := m.Pullup(min(m.PktLen(), view.IPv4MinHdrLen))
	if err != nil {
		l.stats.BadHeader++
		m.Free()
		return
	}
	m = dm
	v, err := view.IPv4(m.Bytes())
	if err != nil {
		l.stats.BadHeader++
		m.Free()
		return
	}
	if v.TotalLen() > m.PktLen() || v.TotalLen() < v.HdrLen() {
		l.stats.BadHeader++
		m.Free()
		return
	}
	// Trim link-layer padding (minimum-size Ethernet frames).
	if m.PktLen() > v.TotalLen() {
		m.Adj(v.TotalLen() - m.PktLen())
	}
	t.ChargeBytesProf(sim.ProfChecksum, "ip", v.HdrLen(), l.host.Costs.ChecksumPerByte)
	if !v.VerifyChecksum() {
		l.stats.BadChecksum++
		m.Free()
		return
	}
	dst := v.Dst()
	if dst != l.addr && !dst.IsBroadcast() && !dst.IsMulticast() {
		if l.forwardFn != nil && l.forwardFn(t, m) {
			return
		}
		l.stats.NotForUs++
		m.Free()
		return
	}
	if v.MoreFragments() || v.FragOffset() > 0 {
		l.stats.FragmentsRcvd++
		m = l.reassemble(t, v, m)
		if m == nil {
			return // incomplete
		}
	}
	l.stats.Delivered++
	if hdr := m.Hdr(); hdr != nil {
		t.Hop(hdr.Span, "ip", "recv", hdr.Len)
	}
	l.host.RaiseRef(t, l.recvRef, m)
}

// dropNoHandler is IP.PacketRecv's NoMatch action: a datagram no transport
// took is freed.
func dropNoHandler(t *sim.Task, m *mbuf.Mbuf) {
	if hdr := m.Hdr(); hdr != nil {
		t.Hop(hdr.Span, "ip", "drop-nohandler", hdr.Len)
	}
	m.Free()
}

// Package udp implements the UDP node of the protocol graph and its protocol
// manager — the component that §3.1 charges with preventing spoofing and
// snooping.
//
// Anti-snooping: applications never install handlers on UDP.PacketRecv
// themselves; they ask the manager to Open an endpoint, and the manager
// installs a guard that matches only that endpoint's port (and, if connected,
// the remote address), so an extension can observe exactly the packets it is
// entitled to.
//
// Anti-spoofing: an endpoint's Send has no parameter for the source fields at
// all — the manager overwrites them with the endpoint's identity. For
// extensions that build their own headers (SendRaw), the manager offers the
// paper's two policies: overwrite the source fields (fast) or verify them and
// reject mismatches (useful when debugging protocols).
package udp

import (
	"errors"
	"fmt"

	"plexus/internal/event"
	"plexus/internal/icmp"
	"plexus/internal/ip"
	"plexus/internal/mbuf"
	"plexus/internal/osmodel"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// RecvEvent carries IP datagrams (proto UDP, IP header intact) that passed
// the UDP layer's validation; endpoint guards demultiplex on it.
const RecvEvent event.Name = "UDP.PacketRecv"

// SendEvent is raised (when observed) for every outgoing UDP datagram.
const SendEvent event.Name = "UDP.PacketSend"

// SpoofPolicy selects how SendRaw treats the source fields (§3.1).
type SpoofPolicy int

const (
	// Overwrite stamps the endpoint's identity over the source fields —
	// "the best performance".
	Overwrite SpoofPolicy = iota
	// Verify checks the source fields against the endpoint and rejects
	// mismatches — "useful for debugging protocols".
	Verify
)

// Errors.
var (
	// ErrPortInUse reports a bind conflict.
	ErrPortInUse = errors.New("udp: port in use")
	// ErrSpoof reports a Verify-policy source mismatch.
	ErrSpoof = errors.New("udp: source fields do not match endpoint")
	// ErrClosed reports use of a closed endpoint.
	ErrClosed = errors.New("udp: endpoint closed")
)

// Stats counts UDP activity.
type Stats struct {
	Sent          uint64
	Received      uint64
	Delivered     uint64
	BadChecksum   uint64
	BadHeader     uint64
	NoPort        uint64
	SpoofsBlocked uint64
}

// Manager is the UDP protocol manager for one host.
type Manager struct {
	host *osmodel.Host
	ip   *ip.Layer
	icmp *icmp.Layer // may be nil; used for port-unreachable
	// recvRef/sendRef are the manager's resolved event handles for the
	// per-datagram path.
	recvRef *event.Ref
	sendRef *event.Ref

	ports         map[uint16]*Endpoint
	nextEphemeral uint16
	stats         Stats
}

// New creates the manager, declares the UDP events, and installs the UDP
// layer's handler on IP.PacketRecv under UDP's wildcard key. On a host whose
// receive path runs at interrupt level, endpoint receive handlers must be
// EPHEMERAL (§3.3).
func New(host *osmodel.Host, ipl *ip.Layer, icmpl *icmp.Layer) (*Manager, error) {
	m := &Manager{
		host:          host,
		ip:            ipl,
		icmp:          icmpl,
		ports:         make(map[uint16]*Endpoint),
		nextEphemeral: 49152,
	}
	if err := host.Disp.Declare(RecvEvent, event.Options{RequireEphemeral: host.RequireEphemeral(), NoMatch: m.noPort}); err != nil {
		return nil, err
	}
	if err := host.Disp.Declare(SendEvent, event.Options{}); err != nil {
		return nil, err
	}
	m.recvRef = host.Disp.Ref(RecvEvent)
	m.sendRef = host.Disp.Ref(SendEvent)
	_, err := host.Disp.InstallKey(ip.RecvEvent, ip.RecvKey(view.IPProtoUDP, 0),
		event.Ephemeral("udp.input", m.input), 0)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Stats returns a snapshot of counters.
func (m *Manager) Stats() Stats { return m.stats }

// InUse reports whether port is bound here or held on IP.PacketRecv, as
// another implementation of UDP holds the ports it takes from this one.
func (m *Manager) InUse(port uint16) bool {
	_, bound := m.ports[port]
	return bound || m.host.Disp.Ref(ip.RecvEvent).Bound(ip.RecvKey(view.IPProtoUDP, port))
}

// LocalAddr returns the host's IP address.
func (m *Manager) LocalAddr() view.IP4 { return m.ip.Addr() }

// input validates a UDP datagram and raises UDP.PacketRecv for endpoint
// guards; datagrams for closed ports trigger port-unreachable.
func (m *Manager) input(t *sim.Task, pkt *mbuf.Mbuf) {
	t.ChargeProf(sim.ProfProto, "udp", m.host.Costs.UDPProc)
	if hdr := pkt.Hdr(); hdr != nil {
		t.Hop(hdr.Span, "udp", "recv", hdr.Len)
	}
	m.stats.Received++
	ipv, err := view.IPv4(pkt.Bytes())
	if err != nil {
		m.stats.BadHeader++
		pkt.Free()
		return
	}
	hl := ipv.HdrLen()
	var hb [view.UDPHdrLen]byte
	if err := pkt.CopyTo(hl, hb[:]); err != nil {
		m.stats.BadHeader++
		pkt.Free()
		return
	}
	uv, _ := view.UDP(hb[:])
	ulen := uv.Length()
	if ulen < view.UDPHdrLen || hl+ulen > pkt.PktLen() {
		m.stats.BadHeader++
		pkt.Free()
		return
	}
	// Verify the checksum when the sender computed one (0 = disabled, the
	// paper's §1.1 application-specific variant).
	if uv.Checksum() != 0 {
		t.ChargeBytesProf(sim.ProfChecksum, "udp", ulen, m.host.Costs.ChecksumPerByte)
		a := view.PseudoHeader(ipv.Src(), ipv.Dst(), view.IPProtoUDP, ulen)
		if err := ip.ChecksumChain(&a, pkt, hl, ulen); err != nil || a.Fold() != 0 {
			m.stats.BadChecksum++
			pkt.Free()
			return
		}
	}
	// Delivered counts the datagram as it is raised; the NoMatch action
	// takes the count back if no endpoint claims it.
	m.stats.Delivered++
	m.host.RaiseRef(t, m.recvRef, pkt)
}

// noPort is UDP.PacketRecv's NoMatch action: a datagram no endpoint took is
// answered with an ICMP port unreachable.
func (m *Manager) noPort(t *sim.Task, pkt *mbuf.Mbuf) {
	m.stats.Delivered--
	m.stats.NoPort++
	if m.icmp != nil {
		// Best effort, as ICMP errors are: NoPort has counted the drop.
		_ = m.icmp.SendUnreachable(t, pkt)
	}
	pkt.Free()
}

// allocEphemeral picks a high port not in use.
func (m *Manager) allocEphemeral() (uint16, error) {
	for i := 0; i < 16384; i++ {
		p := m.nextEphemeral
		m.nextEphemeral++
		if m.nextEphemeral == 0 {
			m.nextEphemeral = 49152
		}
		if !m.InUse(p) {
			return p, nil
		}
	}
	return 0, errors.New("udp: out of ephemeral ports")
}

// RecvFunc receives a delivered datagram: the payload (read-only packet
// positioned at the payload bytes), the source address/port, and the task.
type RecvFunc func(t *sim.Task, payload *mbuf.Mbuf, src view.IP4, srcPort uint16)

// EndpointOptions configure Open.
type EndpointOptions struct {
	// Port 0 allocates an ephemeral port.
	Port uint16
	// Remote/RemotePort, when nonzero, "connect" the endpoint: the guard
	// also filters on the peer, and datagrams from others are invisible.
	Remote     view.IP4
	RemotePort uint16
	// DisableChecksum omits the UDP checksum on sends — the §1.1
	// application-specific optimization for audio/video.
	DisableChecksum bool
	// SpoofPolicy applies to SendRaw (default Overwrite).
	SpoofPolicy SpoofPolicy
	// AcceptMulticast also matches datagrams addressed to multicast
	// groups (the network-video client sets this).
	AcceptMulticast bool
}

// Endpoint is the capability to send and receive on a bound UDP port. It is
// handed out only by the manager; holding it is holding the §3.1 "right to
// raise the PacketSend event".
type Endpoint struct {
	mgr     *Manager
	opts    EndpointOptions
	port    uint16
	binding *event.Binding
	recv    RecvFunc
	closed  bool
}

// Open binds a port and installs the endpoint's guard and handler on
// UDP.PacketRecv on the application's behalf. The handler is EPHEMERAL, so
// it may run at interrupt level (§3.3).
func (m *Manager) Open(opts EndpointOptions, recv RecvFunc) (*Endpoint, error) {
	port := opts.Port
	if port == 0 {
		p, err := m.allocEphemeral()
		if err != nil {
			return nil, err
		}
		port = p
	} else if m.InUse(port) {
		return nil, fmt.Errorf("%w: %d", ErrPortInUse, port)
	}
	e := &Endpoint{mgr: m, opts: opts, port: port, recv: recv}
	guard := e.guard()
	h := event.Ephemeral(fmt.Sprintf("udp.endpoint:%d", port), e.deliver)
	b, err := m.host.Disp.Install(RecvEvent, guard, h, 0)
	if err != nil {
		return nil, err
	}
	e.binding = b
	m.ports[port] = e
	return e, nil
}

// guard builds the endpoint's packet filter: destination port must match, the
// destination address must be ours (or multicast if accepted), and for
// connected endpoints the source must be the peer. This is the anti-snooping
// edge of Figure 1.
func (e *Endpoint) guard() event.Guard {
	return func(t *sim.Task, pkt *mbuf.Mbuf) bool {
		ipv, err := view.IPv4(pkt.Bytes())
		if err != nil {
			return false
		}
		hl := ipv.HdrLen()
		var hb [view.UDPHdrLen]byte
		if err := pkt.CopyTo(hl, hb[:]); err != nil {
			return false
		}
		uv, _ := view.UDP(hb[:])
		if uv.DstPort() != e.port {
			return false
		}
		dst := ipv.Dst()
		if dst != e.mgr.ip.Addr() && !dst.IsBroadcast() &&
			!(e.opts.AcceptMulticast && dst.IsMulticast()) {
			return false
		}
		if e.opts.Remote != (view.IP4{}) && ipv.Src() != e.opts.Remote {
			return false
		}
		if e.opts.RemotePort != 0 && uv.SrcPort() != e.opts.RemotePort {
			return false
		}
		return true
	}
}

// deliver strips headers and hands the payload to the application.
func (e *Endpoint) deliver(t *sim.Task, pkt *mbuf.Mbuf) {
	ipv, err := view.IPv4(pkt.Bytes())
	if err != nil {
		pkt.Free()
		return
	}
	hl := ipv.HdrLen()
	var hb [view.UDPHdrLen]byte
	if err := pkt.CopyTo(hl, hb[:]); err != nil {
		pkt.Free()
		return
	}
	uv, _ := view.UDP(hb[:])
	src, srcPort := ipv.Src(), uv.SrcPort()
	// Trim trailing padding beyond the UDP length, then strip the IP and
	// UDP headers so the application sees exactly its payload.
	if extra := pkt.PktLen() - hl - uv.Length(); extra > 0 {
		pkt.Adj(-extra)
	}
	pkt.Adj(hl + view.UDPHdrLen)
	if hdr := pkt.Hdr(); hdr != nil {
		t.Hop(hdr.Span, "udp", "deliver", hdr.Len)
	}
	if e.recv != nil {
		e.recv(t, pkt, src, srcPort)
	} else {
		pkt.Free()
	}
}

// Port returns the endpoint's bound port.
func (e *Endpoint) Port() uint16 { return e.port }

// Manager returns the owning manager.
func (e *Endpoint) Manager() *Manager { return e.mgr }

// Send transmits payload (consumed) to dst:dstPort. The source fields are the
// endpoint's identity; there is no way to spoof them through this interface.
func (e *Endpoint) Send(t *sim.Task, dst view.IP4, dstPort uint16, payload *mbuf.Mbuf) error {
	return e.send(t, dst, dstPort, payload, false)
}

// SendRaw transmits a datagram whose UDP header the caller already built
// (seg starts at the UDP header; consumed). The manager applies the
// endpoint's spoof policy to the source port before transmission.
func (e *Endpoint) SendRaw(t *sim.Task, dst view.IP4, seg *mbuf.Mbuf) error {
	return e.send(t, dst, 0, seg, true)
}

// send is Send and, with raw, SendRaw: the two differ only in how the UDP
// header of m (consumed) is made.
func (e *Endpoint) send(t *sim.Task, dst view.IP4, dstPort uint16, m *mbuf.Mbuf, raw bool) error {
	if e.closed {
		m.Free()
		return ErrClosed
	}
	mgr := e.mgr
	t.ChargeProf(sim.ProfProto, "udp", mgr.host.Costs.UDPProc)
	// Stamp the lifecycle span at transport entry for locally originated
	// traffic; it rides the PktHdr through every header operation below.
	if s := t.Sim(); s.MetricsEnabled() {
		if hdr := m.Hdr(); hdr != nil && hdr.Span == 0 {
			hdr.Span = s.NextSpan()
		}
	}
	var err error
	if raw {
		err = e.stampSource(m)
	} else {
		m, err = e.header(t, dst, dstPort, m)
	}
	if err != nil {
		return err
	}
	mgr.stats.Sent++
	if hdr := m.Hdr(); hdr != nil {
		t.Hop(hdr.Span, "udp", "send", hdr.Len)
	}
	if mgr.sendRef.HandlerCount() > 0 {
		mgr.sendRef.Raise(t, m) // inline on every boundary: the send path owns m
	}
	return mgr.ip.Send(t, view.IP4{}, dst, view.IPProtoUDP, m)
}

// header prepends and fills the UDP header of payload (freed on error).
func (e *Endpoint) header(t *sim.Task, dst view.IP4, dstPort uint16, payload *mbuf.Mbuf) (*mbuf.Mbuf, error) {
	seg, err := payload.Prepend(view.UDPHdrLen)
	if err != nil {
		payload.Free()
		return nil, fmt.Errorf("udp: %w", err)
	}
	b, err := seg.MutableBytes()
	if err != nil {
		seg.Free()
		return nil, fmt.Errorf("udp: %w", err)
	}
	uv, err := view.UDP(b)
	if err != nil {
		seg.Free()
		return nil, err
	}
	uv.SetSrcPort(e.port)
	uv.SetDstPort(dstPort)
	uv.SetLength(seg.PktLen())
	uv.SetChecksum(0)
	if !e.opts.DisableChecksum {
		t.ChargeBytesProf(sim.ProfChecksum, "udp", seg.PktLen(), e.mgr.host.Costs.ChecksumPerByte)
		a := view.PseudoHeader(e.mgr.ip.Addr(), dst, view.IPProtoUDP, seg.PktLen())
		if err := ip.ChecksumChain(&a, seg, 0, seg.PktLen()); err != nil {
			seg.Free()
			return nil, err
		}
		c := a.Fold()
		if c == 0 {
			c = 0xffff // RFC 768: transmitted 0 means "no checksum"
		}
		uv.SetChecksum(c)
	}
	return seg, nil
}

// stampSource applies the endpoint's spoof policy to the source port of the
// caller-built header of seg (freed on error).
func (e *Endpoint) stampSource(seg *mbuf.Mbuf) error {
	b, err := seg.MutableBytes()
	if err != nil {
		seg.Free()
		return fmt.Errorf("udp: %w", err)
	}
	uv, err := view.UDP(b)
	if err != nil {
		seg.Free()
		return err
	}
	switch e.opts.SpoofPolicy {
	case Verify:
		if uv.SrcPort() != e.port {
			e.mgr.stats.SpoofsBlocked++
			seg.Free()
			return fmt.Errorf("%w: port %d on endpoint %d", ErrSpoof, uv.SrcPort(), e.port)
		}
	default: // Overwrite
		uv.SetSrcPort(e.port)
	}
	return nil
}

// Close releases the port and uninstalls the endpoint's handler. Extensions
// come and go with their applications (§1: runtime adaptation).
func (e *Endpoint) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.mgr.host.Disp.Uninstall(e.binding)
	delete(e.mgr.ports, e.port)
}

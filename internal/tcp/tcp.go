// Package tcp implements the TCP node of the protocol graph: a protocol
// manager that validates segments and demultiplexes them to connections via
// guards, and a connection state machine with sliding windows, Jacobson/Karn
// retransmission timing, slow start, congestion avoidance, and fast
// retransmit.
//
// The paper's Plexus TCP came from a commercial vendor (§4.2); this one is
// written from scratch, but the architecture point is preserved: the same
// transport code runs on both OS personalities, demultiplexed by guards in
// the same protocol graph, and multiple implementations of TCP can coexist
// for different port sets (§3.1 "TCP-standard vs TCP-special") because each
// connection's reach is defined entirely by its guard.
package tcp

import (
	"errors"
	"fmt"

	"plexus/internal/event"
	"plexus/internal/ip"
	"plexus/internal/mbuf"
	"plexus/internal/osmodel"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// RecvEvent carries IP datagrams (proto TCP, IP header intact) that passed
// the TCP layer's validation; connection and listener guards demux on it.
const RecvEvent event.Name = "TCP.PacketRecv"

// Errors.
var (
	// ErrPortInUse reports a bind conflict.
	ErrPortInUse = errors.New("tcp: port in use")
	// ErrClosed reports use of a closed connection.
	ErrClosed = errors.New("tcp: connection closed")
	// ErrReset reports a connection terminated by RST.
	ErrReset = errors.New("tcp: connection reset by peer")
)

// Stats counts manager-level activity.
type Stats struct {
	SegsIn      uint64
	SegsOut     uint64
	BadChecksum uint64
	NoMatch     uint64 // segments for no connection (RST territory)
	RSTsSent    uint64
	// RSTsRejected counts RSTs dropped by sequence validation (RFC 793
	// p.37): out-of-window in synchronized states, not acknowledging our
	// SYN in SYN-SENT, or arriving in TIME-WAIT (RFC 1337).
	RSTsRejected uint64
	Retransmits  uint64
	// FastRecoveries counts NewReno fast-recovery episodes across all
	// connections; SackRexmits counts scoreboard-driven selective
	// retransmissions.
	FastRecoveries uint64
	SackRexmits    uint64
	DelayedAcks    uint64
	// TimeWaitRearms counts retransmitted FINs arriving in TIME-WAIT that
	// were re-ACKed and restarted the 2·MSL timer (RFC 793 p.73).
	TimeWaitRearms uint64
	// TimeWaitQuietDrops counts in-window segments TIME-WAIT deliberately
	// answered with silence — the quiet period that keeps two TIME-WAIT
	// ends of a simultaneous close from trading ACKs forever.
	TimeWaitQuietDrops uint64
}

// Manager is the TCP protocol manager for one host.
type Manager struct {
	host *osmodel.Host
	ip   *ip.Layer
	// recvRef is the resolved RecvEvent handle for the per-segment path.
	recvRef *event.Ref

	// connList holds the live TCBs in creation order (nil where one was
	// torn down), the deterministic iteration the telemetry probe samples
	// through. A TCB's demux entry is its keyed binding: see recvRef.Bound.
	connList  []*Conn
	liveConns int // non-nil entries of connList
	// portConns counts the live TCBs on each local port, so InUse tests a
	// port with one lookup: a passive open shares its listener's port, and
	// TIME-WAIT holds its port until teardown. It changes only where
	// connList gains or loses a TCB (newConn, teardown) and is nil until
	// the first connection.
	portConns map[uint16]int
	nextPort  uint16
	issSeed   uint32
	stats     Stats
	// rings holds send-ring storage of connections that finished sending,
	// for the next connections' first Sends (see takeRing).
	rings [][]byte
	// scratch is where a handler linearises the payload of the segment it is
	// processing (see payload); allocated by the first data segment.
	scratch []byte
	// defaultCC names the congestion-control algorithm for connections
	// that don't pick one ("" = NewReno).
	defaultCC string
	// minRTO is the retransmission-timeout floor for all connections.
	minRTO sim.Time

	// audit receives every connection state transition; hostName is the
	// precomputed host label stamped into each event (never formatted on
	// the emission path).
	audit    TransitionSink
	hostName string
}

// Config is what a Manager needs beyond its host.
type Config struct {
	IP *ip.Layer
	// DefaultCC names the congestion-control algorithm by name
	// ("newreno", "cubic", "bbr") for every connection ("" = NewReno).
	DefaultCC string
	// MinRTO overrides the retransmission-timeout floor (0 = the RFC 6298
	// conservative 1s). Modern low-latency stacks use ~200ms.
	MinRTO sim.Time
}

// New creates the manager, declares TCP.PacketRecv, and installs the TCP
// layer's handler on IP.PacketRecv under TCP's wildcard key, so that another
// implementation of TCP takes a port by holding its key (paper §3.1:
// TCP-standard processes all TCP packets but those destined for
// TCP-special). Connection handlers are installed by the manager itself, so
// TCP.PacketRecv never requires EPHEMERAL ones.
func New(host *osmodel.Host, cfg Config) (*Manager, error) {
	m := &Manager{
		host:      host,
		ip:        cfg.IP,
		nextPort:  32768,
		issSeed:   uint32(host.Sim.Rand().Int63()),
		defaultCC: cfg.DefaultCC,
		minRTO:    cfg.MinRTO,
		hostName:  host.CPU.Name(),
	}
	if m.minRTO == 0 {
		m.minRTO = minRTO
	}
	if err := host.Disp.Declare(RecvEvent, event.Options{Key: segKey, NoMatch: m.noMatch}); err != nil {
		return nil, err
	}
	m.recvRef = host.Disp.Ref(RecvEvent)
	_, err := host.Disp.InstallKey(ip.RecvEvent, ip.RecvKey(view.IPProtoTCP, 0),
		event.Ephemeral("tcp.input", m.input), 0)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Stats returns a snapshot of counters.
func (m *Manager) Stats() Stats { return m.stats }

// NumConns reports how many TCBs are live (any state before full teardown).
// TIME-WAIT holds its slot — and its port — until the 2*MSL timer frees it.
func (m *Manager) NumConns() int { return m.liveConns }

// InUse reports whether port is in use: by a TCB (TIME-WAIT's included), by
// a listener, or by another implementation of TCP holding it on
// IP.PacketRecv, which takes the port's segments from this manager.
func (m *Manager) InUse(port uint16) bool { return m.portConns[port] > 0 || m.held(port) }

// held reports whether a listener or another implementation holds port.
func (m *Manager) held(port uint16) bool {
	return m.recvRef.Bound(connKeyOf(port, view.IP4{}, 0)) ||
		m.host.Disp.Ref(ip.RecvEvent).Bound(ip.RecvKey(view.IPProtoTCP, port))
}

// MSS returns the maximum segment size for the interface.
func (m *Manager) MSS() int { return m.ip.MTU() - view.IPv4MinHdrLen - view.TCPMinHdrLen }

// input validates a TCP segment and raises TCP.PacketRecv; segments matching
// no guard draw an RST.
func (m *Manager) input(t *sim.Task, pkt *mbuf.Mbuf) {
	t.ChargeProf(sim.ProfProto, "tcp", m.host.Costs.TCPProc)
	if hdr := pkt.Hdr(); hdr != nil {
		t.Hop(hdr.Span, "tcp", "recv", hdr.Len)
	}
	m.stats.SegsIn++
	ipv, err := view.IPv4(pkt.Bytes())
	if err != nil {
		pkt.Free()
		return
	}
	hl := ipv.HdrLen()
	segLen := ipv.TotalLen() - hl
	if segLen < view.TCPMinHdrLen {
		pkt.Free()
		return
	}
	t.ChargeBytesProf(sim.ProfChecksum, "tcp", segLen, m.host.Costs.ChecksumPerByte)
	a := view.PseudoHeader(ipv.Src(), ipv.Dst(), view.IPProtoTCP, segLen)
	if err := ip.ChecksumChain(&a, pkt, hl, segLen); err != nil || a.Fold() != 0 {
		m.stats.BadChecksum++
		pkt.Free()
		return
	}
	m.host.RaiseRef(t, m.recvRef, pkt)
}

// noMatch is TCP.PacketRecv's NoMatch action: a segment no connection or
// listener took is answered with a reset.
func (m *Manager) noMatch(t *sim.Task, pkt *mbuf.Mbuf) {
	m.stats.NoMatch++
	m.sendRSTFor(t, pkt)
	pkt.Free()
}

// seg is the parsed header of an incoming segment. The payload stays in the
// packet: payOff/payLen locate it, and a handler that needs the bytes calls
// Manager.payload.
type seg struct {
	src     view.IP4
	srcPort uint16
	dstPort uint16
	seq     uint32
	ack     uint32
	flags   uint8
	wnd     uint32
	payOff  int // offset of the payload within the IP datagram
	payLen  int
	// Parsed options. mss is 0 when absent; wscale is -1 when absent.
	mss      uint16
	wscale   int8
	sackPerm bool
	nsack    uint8
	sack     [maxParsedSackBlocks]sackBlock
}

// maxHdrLen is the longest TCP header the 4-bit data offset can express.
const maxHdrLen = 60

// parseHdr reads a segment's header from an IP datagram packet without
// copying the segment: the TCP header is viewed in place in the head mbuf, or
// gathered into a stack array when it straddles mbufs. Guards and handlers
// alike call it, so it allocates nothing.
func parseHdr(pkt *mbuf.Mbuf) (seg, bool) {
	head := pkt.Bytes()
	ipv, err := view.IPv4(head)
	if err != nil {
		return seg{}, false
	}
	hl := ipv.HdrLen()
	segLen := ipv.TotalLen() - hl
	if segLen < view.TCPMinHdrLen || ipv.TotalLen() > pkt.PktLen() {
		return seg{}, false
	}
	n := segLen
	if n > maxHdrLen {
		n = maxHdrLen
	}
	var straddle [maxHdrLen]byte
	raw := straddle[:n]
	if len(head) >= hl+n {
		raw = head[hl : hl+n]
	} else if err := pkt.CopyTo(hl, raw); err != nil {
		return seg{}, false
	}
	// view.TCP rejects a data offset below 20 or beyond raw, and raw holds
	// min(segLen, 60) bytes, so an accepted offset lies within the segment.
	tv, err := view.TCP(raw)
	if err != nil {
		return seg{}, false
	}
	dataOff := tv.DataOff()
	s := seg{
		src:     ipv.Src(),
		srcPort: tv.SrcPort(),
		dstPort: tv.DstPort(),
		seq:     tv.Seq(),
		ack:     tv.Ack(),
		flags:   tv.Flags(),
		wnd:     uint32(tv.Window()),
		payOff:  hl + dataOff,
		payLen:  segLen - dataOff,
		wscale:  -1,
	}
	if dataOff > view.TCPMinHdrLen {
		parseOptions(raw[view.TCPMinHdrLen:dataOff], &s)
	}
	return s, true
}

// segKey is RecvEvent's key extractor: the segment's connection key as seen
// from the receiver and, as its wildcard, the key of a listener on its
// destination port; ok exactly when parseHdr accepts the segment. A
// connection's keyed binding thus matches exactly the segments of its
// 4-tuple (the local address is IP's to check), and a listener its port's
// segments that no connection's key takes.
func segKey(pkt *mbuf.Mbuf) (exact, wild event.Key, ok bool) {
	s, ok := parseHdr(pkt)
	return connKeyOf(s.dstPort, s.src, s.srcPort), connKeyOf(s.dstPort, view.IP4{}, 0), ok
}

// connKeyOf packs a connection's 4-tuple, less the local address, into the
// key its binding on RecvEvent matches.
func connKeyOf(localPort uint16, remote view.IP4, remotePort uint16) event.Key {
	return event.Key(localPort)<<48 | event.Key(remotePort)<<32 |
		event.Key(remote[0])<<24 | event.Key(remote[1])<<16 | event.Key(remote[2])<<8 | event.Key(remote[3])
}

// payload linearises the payload of the segment a handler is processing into
// the manager's scratch buffer. The slice is valid until the next call: it is
// what App.Recv receives, which is why that data may not be retained.
func (m *Manager) payload(pkt *mbuf.Mbuf, s seg) []byte {
	if s.payLen == 0 {
		return nil
	}
	if cap(m.scratch) < s.payLen {
		n := m.MSS()
		if n < s.payLen {
			n = s.payLen
		}
		m.scratch = make([]byte, n)
	}
	b := m.scratch[:s.payLen]
	if err := pkt.CopyTo(s.payOff, b); err != nil {
		// parseHdr checked the range against the chain; only a corrupted
		// chain gets here.
		panic(err)
	}
	return b
}

// segTextLen returns the sequence-space length of a segment (payload plus
// SYN/FIN flags).
func (s seg) segTextLen() uint32 {
	n := uint32(s.payLen)
	if s.flags&view.TCPSyn != 0 {
		n++
	}
	if s.flags&view.TCPFin != 0 {
		n++
	}
	return n
}

// sendRSTFor answers a segment that matched nothing (RFC 793 p.36).
func (m *Manager) sendRSTFor(t *sim.Task, pkt *mbuf.Mbuf) {
	s, ok := parseHdr(pkt)
	if !ok || s.flags&view.TCPRst != 0 {
		return
	}
	m.stats.RSTsSent++
	if s.flags&view.TCPAck != 0 {
		m.sendSegment(t, s.dstPort, s.src, s.srcPort, s.ack, 0, view.TCPRst, 0, nil, nil, nil)
	} else {
		m.sendSegment(t, s.dstPort, s.src, s.srcPort, 0, s.seq+s.segTextLen(), view.TCPRst|view.TCPAck, 0, nil, nil, nil)
	}
}

// sendSegment builds and transmits one TCP segment. opts is the option
// block (must be 32-bit aligned and at most 40 bytes); the data offset is
// derived from its length. The payload arrives as the two slices a send-ring
// peek yields (either may be nil) and is copied once, straight into the
// packet's mbufs.
func (m *Manager) sendSegment(t *sim.Task, srcPort uint16, dst view.IP4, dstPort uint16, seqNum, ackNum uint32, flags uint8, wnd uint32, opts, pay0, pay1 []byte) {
	m.stats.SegsOut++
	var hdrBuf [maxHdrLen]byte
	hdr := hdrBuf[:view.TCPMinHdrLen+len(opts)]
	copy(hdr[view.TCPMinHdrLen:], opts)
	hdr[12] = uint8(len(hdr)/4) << 4
	v, err := view.TCP(hdr)
	if err != nil {
		return
	}
	v.SetSrcPort(srcPort)
	v.SetDstPort(dstPort)
	v.SetSeq(seqNum)
	v.SetAck(ackNum)
	v.SetFlags(flags)
	if wnd > 65535 {
		wnd = 65535
	}
	v.SetWindow(uint16(wnd))
	segLen := len(hdr) + len(pay0) + len(pay1)
	a := view.PseudoHeader(m.ip.Addr(), dst, view.IPProtoTCP, segLen)
	a.Add(hdr)
	a.Add(pay0)
	a.Add(pay1)
	v.SetChecksum(a.Fold())
	t.ChargeProf(sim.ProfProto, "tcp", m.host.Costs.TCPProc)
	t.ChargeBytesProf(sim.ProfChecksum, "tcp", segLen, m.host.Costs.ChecksumPerByte)
	seg := m.host.Pool.Gather(64, hdr, pay0, pay1)
	if s := m.host.Sim; s.MetricsEnabled() {
		seg.Hdr().Span = s.NextSpan()
		t.Hop(seg.Hdr().Span, "tcp", "send", seg.Hdr().Len)
	}
	// A segment that fails to send is lost, and retransmission recovers it
	// as it would a loss on the wire.
	_ = m.ip.Send(t, view.IP4{}, dst, view.IPProtoTCP, seg)
}

// allocPort picks a local port not in use for an active open.
func (m *Manager) allocPort() (uint16, error) {
	for i := 0; i < 16384; i++ {
		p := m.nextPort
		m.nextPort++
		if m.nextPort == 49152 {
			m.nextPort = 32768
		}
		if !m.InUse(p) {
			return p, nil
		}
	}
	return 0, errors.New("tcp: out of ports")
}

// iss generates an initial send sequence.
func (m *Manager) iss() uint32 {
	m.issSeed += 64021 // RFC 793's 4µs clock, loosely
	return m.issSeed
}

// Listener accepts incoming connections on a port.
type Listener struct {
	mgr    *Manager
	port   uint16
	accept func(t *sim.Task, c *Conn) App
}

// Listen binds a passive endpoint: a binding holding the port's listener
// key, the wildcard that takes SYNs (and continuing segments of
// not-yet-accepted connections) no connection's key takes. accept runs once
// per connection, when the peer ACKs our SYN, and returns the connection's
// App. A port another implementation holds is in use.
func (m *Manager) Listen(port uint16, accept func(t *sim.Task, c *Conn) App) (*Listener, error) {
	if m.held(port) {
		return nil, fmt.Errorf("%w: %d", ErrPortInUse, port)
	}
	l := &Listener{mgr: m, port: port, accept: accept}
	h := event.Handler{Name: fmt.Sprintf("tcp.listen:%d", port), Fn: l.input, Ephemeral: true}
	if _, err := m.host.Disp.InstallKey(RecvEvent, connKeyOf(port, view.IP4{}, 0), h, 0); err != nil {
		return nil, err
	}
	return l, nil
}

// input handles a segment for the listening port with no matching connection.
func (l *Listener) input(t *sim.Task, pkt *mbuf.Mbuf) {
	defer pkt.Free()
	s, ok := parseHdr(pkt)
	if !ok {
		return
	}
	if s.flags&view.TCPRst != 0 {
		return
	}
	if s.flags&view.TCPAck != 0 {
		l.mgr.stats.RSTsSent++
		l.mgr.sendSegment(t, l.port, s.src, s.srcPort, s.ack, 0, view.TCPRst, 0, nil, nil, nil)
		return
	}
	if s.flags&view.TCPSyn == 0 {
		return
	}
	// Passive open: the new TCB inherits the listener's LISTEN state, then
	// the SYN drives LISTEN → SYN-RECEIVED — the RFC 793 §3.2 path, taken
	// verbatim so the conformance table can require it.
	c := l.mgr.newConn(l.port, s.src, s.srcPort)
	c.listener = l
	c.setState(StateListen, userCause(CauseListen))
	c.rcv.nxt = s.seq + 1
	// A SYN's window is never scaled (RFC 7323 §2.2); wl1/wl2 seed the
	// window-update freshness rule.
	c.snd.wnd = s.wnd
	c.snd.wl1 = s.seq
	c.snd.wl2 = s.ack
	c.applySynOptions(s)
	c.setState(StateSynRcvd, segCause(s))
	c.sendSYNACK(t)
}

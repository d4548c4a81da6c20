// Package icmp implements the ICMP node of the protocol graph: echo
// request/reply (ping), destination-unreachable and time-exceeded
// generation, and a callback registry for echo responses.
package icmp

import (
	"plexus/internal/event"
	"plexus/internal/ip"
	"plexus/internal/mbuf"
	"plexus/internal/osmodel"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// Stats counts ICMP activity.
type Stats struct {
	EchoRequestsRcvd uint64
	EchoRepliesRcvd  uint64
	BadChecksum      uint64
	UnreachSent      uint64
	TimeExceededSent uint64
}

// EchoReply describes a received echo response.
type EchoReply struct {
	From    view.IP4
	Ident   uint16
	Seq     uint16
	Payload []byte
	RTTEnd  sim.Time // arrival time at the ICMP layer
}

// Layer is the ICMP protocol node for one host.
type Layer struct {
	host  *osmodel.Host
	ip    *ip.Layer
	stats Stats
	// waiters maps echo ident → callback.
	waiters map[uint16]func(*sim.Task, EchoReply)
}

// New creates the ICMP node and installs its handler on IP.PacketRecv under
// the ICMP key.
func New(host *osmodel.Host, ipl *ip.Layer) (*Layer, error) {
	l := &Layer{
		host:    host,
		ip:      ipl,
		waiters: make(map[uint16]func(*sim.Task, EchoReply)),
	}
	_, err := host.Disp.InstallKey(ip.RecvEvent, ip.RecvKey(view.IPProtoICMP, 0),
		event.Ephemeral("icmp.input", l.input), 0)
	if err != nil {
		return nil, err
	}
	return l, nil
}

// Stats returns a snapshot of counters.
func (l *Layer) Stats() Stats { return l.stats }

// Ping sends an echo request and registers cb to run when the matching
// reply (by ident) arrives. Replies keep invoking cb until Cancel.
func (l *Layer) Ping(t *sim.Task, dst view.IP4, ident, seq uint16, payload []byte, cb func(*sim.Task, EchoReply)) error {
	if cb != nil {
		l.waiters[ident] = cb
	}
	m := l.buildEcho(view.ICMPEchoRequest, ident, seq, payload)
	t.ChargeBytes(m.PktLen(), l.host.Costs.ChecksumPerByte)
	return l.ip.Send(t, view.IP4{}, dst, view.IPProtoICMP, m)
}

// Cancel removes the reply callback for ident.
func (l *Layer) Cancel(ident uint16) { delete(l.waiters, ident) }

func (l *Layer) buildEcho(typ uint8, ident, seq uint16, payload []byte) *mbuf.Mbuf {
	buf := make([]byte, view.ICMPHdrLen+len(payload))
	copy(buf[view.ICMPHdrLen:], payload)
	v, _ := view.ICMP(buf)
	v.SetType(typ)
	v.SetCode(0)
	v.SetIdent(ident)
	v.SetSeq(seq)
	v.SetChecksum(0)
	v.SetChecksum(view.Checksum(buf))
	return l.host.Pool.FromBytes(buf, 64)
}

// input handles an IP datagram (header intact, read-only) carrying ICMP.
func (l *Layer) input(t *sim.Task, m *mbuf.Mbuf) {
	defer m.Free()
	ipv, err := view.IPv4(m.Bytes())
	if err != nil {
		return
	}
	body, err := m.CopyData(ipv.HdrLen(), ipv.TotalLen()-ipv.HdrLen())
	if err != nil || len(body) < view.ICMPHdrLen {
		return
	}
	t.ChargeBytes(len(body), l.host.Costs.ChecksumPerByte)
	if view.Checksum(body) != 0 {
		l.stats.BadChecksum++
		return
	}
	v, _ := view.ICMP(body)
	switch v.Type() {
	case view.ICMPEchoRequest:
		l.stats.EchoRequestsRcvd++
		reply := l.buildEcho(view.ICMPEchoReply, v.Ident(), v.Seq(), body[view.ICMPHdrLen:])
		t.ChargeBytes(reply.PktLen(), l.host.Costs.ChecksumPerByte)
		if err := l.ip.Send(t, view.IP4{}, ipv.Src(), view.IPProtoICMP, reply); err != nil {
			return
		}
	case view.ICMPEchoReply:
		l.stats.EchoRepliesRcvd++
		if cb, ok := l.waiters[v.Ident()]; ok {
			cb(t, EchoReply{
				From:    ipv.Src(),
				Ident:   v.Ident(),
				Seq:     v.Seq(),
				Payload: body[view.ICMPHdrLen:],
				RTTEnd:  t.Now(),
			})
		}
	}
}

// SendUnreachable emits a destination-unreachable (port) citing the offending
// datagram orig (not consumed), as udp_input does for closed ports.
func (l *Layer) SendUnreachable(t *sim.Task, orig *mbuf.Mbuf) error {
	l.stats.UnreachSent++
	return l.sendError(t, view.ICMPDestUnreach, view.ICMPCodePortUnr, orig)
}

// SendTimeExceeded emits a time-exceeded (TTL expired in transit) citing the
// offending datagram orig (not consumed) — the forwarding plane's answer to a
// datagram whose TTL ran out at the gateway.
func (l *Layer) SendTimeExceeded(t *sim.Task, orig *mbuf.Mbuf) error {
	l.stats.TimeExceededSent++
	return l.sendError(t, view.ICMPTimeExceeded, view.ICMPCodeTTLExpired, orig)
}

// sendError builds and sends an ICMP error of the given type/code quoting the
// offending datagram's IP header + 8 bytes of payload, per RFC 792.
func (l *Layer) sendError(t *sim.Task, typ, code uint8, orig *mbuf.Mbuf) error {
	ipv, err := view.IPv4(orig.Bytes())
	if err != nil {
		return err
	}
	quote := ipv.HdrLen() + 8
	if orig.PktLen() < quote {
		quote = orig.PktLen()
	}
	q, err := orig.CopyData(0, quote)
	if err != nil {
		return err
	}
	buf := make([]byte, view.ICMPHdrLen+len(q))
	copy(buf[view.ICMPHdrLen:], q)
	v, _ := view.ICMP(buf)
	v.SetType(typ)
	v.SetCode(code)
	v.SetChecksum(0)
	v.SetChecksum(view.Checksum(buf))
	return l.ip.Send(t, view.IP4{}, ipv.Src(), view.IPProtoICMP, l.host.Pool.FromBytes(buf, 64))
}

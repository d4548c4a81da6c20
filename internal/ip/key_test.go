package ip

import (
	"slices"
	"strings"
	"testing"

	"plexus/internal/event"
	"plexus/internal/mbuf"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// protoGuard is the closure guard on RecvEvent that a protocol's wildcard
// key replaced: it matches one IP protocol.
func protoGuard(proto uint8) event.Guard {
	return func(_ *sim.Task, m *mbuf.Mbuf) bool {
		v, err := view.IPv4(m.Bytes())
		return err == nil && v.Proto() == proto
	}
}

// dstPort reads a transport header's destination port, as the forwarder's
// guard did.
func dstPort(m *mbuf.Mbuf) (uint16, bool) {
	v, err := view.IPv4(m.Bytes())
	var ports [4]byte
	if err != nil || m.CopyTo(v.HdrLen(), ports[:]) != nil {
		return 0, false
	}
	return uint16(ports[2])<<8 | uint16(ports[3]), true
}

// portGuard is the forwarder's closure guard that an exact key replaced: one
// protocol's datagrams to one of ports.
func portGuard(proto uint8, ports ...uint16) event.Guard {
	return func(t *sim.Task, m *mbuf.Mbuf) bool {
		p, ok := dstPort(m)
		return protoGuard(proto)(t, m) && ok && slices.Contains(ports, p)
	}
}

// transportGuard is the TCP and UDP managers' closure guard that their
// wildcard keys replaced: their protocol's datagrams to any port another
// implementation has not taken. Unlike the guard it was, it ignores the
// source port: a host's own connection to a remote service port that a
// forwarder here holds is the host's own.
func transportGuard(proto uint8, taken ...uint16) event.Guard {
	return func(t *sim.Task, m *mbuf.Mbuf) bool {
		p, ok := dstPort(m)
		return protoGuard(proto)(t, m) && !(ok && slices.Contains(taken, p))
	}
}

// recvKey puts each datagram in the hands of the entry whose closure guard
// took it: ICMP and SPP by protocol, TCP and UDP by protocol less the ports
// a forwarder or another UDP holds, whole or laid across mbufs, with IP
// options or without.
func TestRecvKeyAgreesWithClosures(t *testing.T) {
	const spp = 77
	type entry struct {
		name  string
		keys  []event.Key
		guard event.Guard
	}
	entries := []entry{
		{"icmp", []event.Key{RecvKey(view.IPProtoICMP, 0)}, protoGuard(view.IPProtoICMP)},
		{"udp", []event.Key{RecvKey(view.IPProtoUDP, 0)}, transportGuard(view.IPProtoUDP, 53)},
		{"tcp", []event.Key{RecvKey(view.IPProtoTCP, 0)}, transportGuard(view.IPProtoTCP, 8000, 61000)},
		{"spp", []event.Key{RecvKey(spp, 0)}, protoGuard(spp)},
		{"forward", []event.Key{RecvKey(view.IPProtoTCP, 8000), RecvKey(view.IPProtoTCP, 61000)}, portGuard(view.IPProtoTCP, 8000, 61000)},
		{"udp.other", []event.Key{RecvKey(view.IPProtoUDP, 53)}, portGuard(view.IPProtoUDP, 53)},
	}
	d := event.NewDispatcher(event.DefaultCosts())
	var got []string
	for _, e := range []event.Name{"keyed", "closure"} {
		d.MustDeclare(e, event.Options{Key: recvKey})
		for _, en := range entries {
			name := en.name
			h := event.Proc(name, func(*sim.Task, *mbuf.Mbuf) { got = append(got, name) })
			if e == "closure" {
				if _, err := d.Install(e, en.guard, h, 0); err != nil {
					t.Fatal(err)
				}
				continue
			}
			b, err := d.InstallKey(e, en.keys[0], h, 0)
			for _, k := range en.keys[1:] {
				if err == nil {
					err = d.AddKey(b, k)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	// dgram is an IP datagram of proto with an hl-byte header and
	// transport bytes tp.
	dgram := func(proto uint8, hl int, tp ...byte) []byte {
		b := make([]byte, hl+len(tp))
		b[0] = 0x40 | byte(hl/4)
		b[2], b[3] = byte(len(b)>>8), byte(len(b))
		b[9] = proto
		copy(b[hl:], tp)
		return b
	}
	ports := func(src, dst uint16) []byte {
		return []byte{byte(src >> 8), byte(src), byte(dst >> 8), byte(dst), 0, 0, 0, 0}
	}
	cases := []struct {
		name string
		d    []byte
		want string
	}{
		{"icmp", dgram(view.IPProtoICMP, 20, ports(0, 8000)...), "icmp"},
		{"udp to a free port", dgram(view.IPProtoUDP, 20, ports(1234, 54)...), "udp"},
		{"udp to a held port", dgram(view.IPProtoUDP, 20, ports(1234, 53)...), "udp.other"},
		{"udp from a held port", dgram(view.IPProtoUDP, 20, ports(53, 1234)...), "udp"},
		{"tcp to the service port", dgram(view.IPProtoTCP, 20, ports(5000, 8000)...), "forward"},
		{"tcp to a NAT port", dgram(view.IPProtoTCP, 24, ports(9000, 61000)...), "forward"},
		{"tcp from the service port", dgram(view.IPProtoTCP, 20, ports(8000, 32768)...), "tcp"},
		{"tcp to port 0", dgram(view.IPProtoTCP, 20, ports(8000, 0)...), "tcp"},
		{"tcp too short for ports", dgram(view.IPProtoTCP, 20, 0x1f, 0x40, 0), "tcp"},
		{"spp with a service port's bytes", dgram(spp, 20, ports(5000, 8000)...), "spp"},
		{"an unclaimed protocol", dgram(253, 20, ports(5000, 8000)...), ""},
		{"no IP header", []byte{0x45, 0, 0}, ""},
	}
	pool := mbuf.NewPool()
	for _, c := range cases {
		headLens := []int{len(c.d)}
		if h := int(c.d[0]&0xf)*4 + 3; h < len(c.d) {
			headLens = append(headLens, h) // the destination port straddles
		}
		for _, headLen := range headLens {
			pkt := pool.FromBytes(c.d[:headLen], 0)
			if headLen < len(c.d) {
				if err := pkt.Cat(pool.FromBytes(c.d[headLen:], 0)); err != nil {
					t.Fatal(err)
				}
			}
			var reached [2]string
			for i, e := range []event.Name{"keyed", "closure"} {
				got = got[:0]
				s := sim.New(1)
				sim.NewCPU(s, "cpu").Submit(sim.PrioKernel, "raise", func(task *sim.Task) { d.Raise(task, e, pkt) })
				s.Run()
				reached[i] = strings.Join(got, ",")
			}
			if reached[0] != reached[1] || reached[0] != c.want {
				t.Errorf("%s, head %d: keyed reached %q, closure %q; want %q", c.name, headLen, reached[0], reached[1], c.want)
			}
			pkt.Free()
		}
	}
}

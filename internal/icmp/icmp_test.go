package icmp_test

import (
	"testing"

	"plexus/internal/event"
	"plexus/internal/icmp"
	"plexus/internal/ip"
	"plexus/internal/mbuf"
	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/view"
)

func spin(name string) plexus.HostSpec {
	return plexus.HostSpec{Name: name, Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt}
}

// mangle is a test netdev.Impairment that edits every transmitted frame in
// place.
type mangle func(wire []byte)

func (mangle) Down() bool { return false }

func (m mangle) Frame(wire []byte) (bool, sim.Time, bool) {
	m(wire)
	return false, 0, false
}

func pair(t *testing.T) (*plexus.Network, *plexus.Stack, *plexus.Stack) {
	t.Helper()
	n, a, b, err := plexus.TwoHosts(1, netdev.EthernetModel(), spin("a"), spin("b"))
	if err != nil {
		t.Fatal(err)
	}
	return n, a, b
}

func TestPingSequenceOfReplies(t *testing.T) {
	n, a, b := pair(t)
	var seqs []uint16
	a.Spawn("pinger", func(task *sim.Task) {
		cb := func(t2 *sim.Task, r icmp.EchoReply) {
			seqs = append(seqs, r.Seq)
			if r.Seq < 5 {
				_ = a.ICMP.Ping(t2, b.Addr(), 7, r.Seq+1, nil, nil)
			}
		}
		if err := a.ICMP.Ping(task, b.Addr(), 7, 1, nil, cb); err != nil {
			t.Errorf("ping: %v", err)
		}
	})
	n.Sim.RunUntil(10 * sim.Second)
	if len(seqs) != 5 {
		t.Fatalf("got %d replies, want 5", len(seqs))
	}
	for i, s := range seqs {
		if int(s) != i+1 {
			t.Fatalf("reply order wrong: %v", seqs)
		}
	}
}

func TestCancelStopsCallbacks(t *testing.T) {
	n, a, b := pair(t)
	calls := 0
	a.Spawn("ping", func(task *sim.Task) {
		_ = a.ICMP.Ping(task, b.Addr(), 9, 1, nil, func(*sim.Task, icmp.EchoReply) { calls++ })
	})
	n.Sim.RunUntil(sim.Second)
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
	a.ICMP.Cancel(9)
	a.Spawn("ping2", func(task *sim.Task) {
		// nil callback leaves the (cancelled) registration alone.
		_ = a.ICMP.Ping(task, b.Addr(), 9, 2, nil, nil)
	})
	n.Sim.RunUntil(2 * sim.Second)
	if calls != 1 {
		t.Fatalf("cancelled callback still ran: %d", calls)
	}
	if a.ICMP.Stats().EchoRepliesRcvd != 2 {
		t.Errorf("EchoRepliesRcvd = %d", a.ICMP.Stats().EchoRepliesRcvd)
	}
}

func TestCorruptedICMPDropped(t *testing.T) {
	n, a, b := pair(t)
	got := 0
	n.Link.Impair(mangle(func(wire []byte) {
		// Flip a bit in the ICMP payload (frame: 14 eth + 20 ip + 8 icmp).
		if len(wire) > 43 {
			wire[43] ^= 0x10
		}
	}))
	a.Spawn("ping", func(task *sim.Task) {
		_ = a.ICMP.Ping(task, b.Addr(), 1, 1, []byte("data"), func(*sim.Task, icmp.EchoReply) { got++ })
	})
	n.Sim.RunUntil(sim.Second)
	if got != 0 {
		t.Fatal("corrupted echo produced a reply")
	}
	if b.ICMP.Stats().BadChecksum != 1 {
		t.Errorf("receiver BadChecksum = %d", b.ICMP.Stats().BadChecksum)
	}
}

func TestPortUnreachableQuotesOriginal(t *testing.T) {
	n, a, b := pair(t)
	capp, err := a.OpenUDP(plexus.UDPAppOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.Spawn("send", func(task *sim.Task) {
		_ = capp.Send(task, b.Addr(), 4242, []byte("nobody home"))
	})
	n.Sim.Run()
	if b.ICMP.Stats().UnreachSent != 1 {
		t.Fatalf("UnreachSent = %d", b.ICMP.Stats().UnreachSent)
	}
	// The unreachable came back to a; a's ICMP layer saw it (it is not an
	// echo, so it is counted nowhere else — verify via IP delivery).
	if a.IP.Stats().Delivered < 1 {
		t.Error("unreachable never delivered back to the sender")
	}
}

// protoGuard is the closure guard on IP.PacketRecv that the protocol
// managers' keyed entries replaced: it matches one IP protocol.
func protoGuard(proto uint8) event.Guard {
	return func(t *sim.Task, m *mbuf.Mbuf) bool {
		v, err := view.IPv4(m.Bytes())
		if err != nil {
			return false
		}
		return v.Proto() == proto
	}
}

// ICMP's keyed entry on IP.PacketRecv takes exactly the datagrams the
// protocol guard it replaced accepted: an echo request reaches the ICMP layer
// under ICMP's protocol number and under no other, and garbage reaches
// nobody.
func TestProtoGuard(t *testing.T) {
	n, a, b := pair(t)
	g := protoGuard(view.IPProtoICMP)
	echo := func(proto uint8) *mbuf.Mbuf {
		d := make([]byte, view.IPv4MinHdrLen+view.ICMPHdrLen)
		d[0] = 0x45
		v, _ := view.IPv4(d)
		v.SetTotalLen(len(d))
		v.SetTTL(64)
		v.SetProto(proto)
		v.SetSrc(a.Addr())
		v.SetDst(b.Addr())
		v.ComputeChecksum()
		iv, _ := view.ICMP(d[view.IPv4MinHdrLen:])
		iv.SetType(view.ICMPEchoRequest)
		iv.SetChecksum(view.Checksum(d[view.IPv4MinHdrLen:]))
		return b.Host.Pool.FromBytes(d, 0)
	}
	cases := []struct {
		name string
		m    *mbuf.Mbuf
	}{
		{"icmp", echo(view.IPProtoICMP)},
		{"udp", echo(view.IPProtoUDP)},
		{"tcp", echo(view.IPProtoTCP)},
		{"unclaimed protocol", echo(253)},
		{"garbage", b.Host.Pool.FromBytes([]byte{1, 2, 3}, 0)},
	}
	for _, c := range cases {
		want := g(nil, c.m)
		before := b.ICMP.Stats().EchoRequestsRcvd
		b.Spawn("rx", func(task *sim.Task) { b.Host.Disp.Raise(task, ip.RecvEvent, c.m) })
		n.Sim.Run()
		if got := b.ICMP.Stats().EchoRequestsRcvd != before; got != want {
			t.Errorf("%s: reached ICMP %v, protocol guard %v", c.name, got, want)
		}
	}
}

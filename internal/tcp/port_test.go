package tcp

import (
	"strconv"
	"strings"
	"testing"

	"plexus/internal/arp"
	"plexus/internal/ether"
	"plexus/internal/event"
	"plexus/internal/ip"
	"plexus/internal/mbuf"
	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/sim"
	"plexus/internal/view"
)

var portPeer = view.IP4{10, 0, 0, 2}

// portManager is a TCP manager on a lone Ethernet host whose peer's MAC is
// known, so an active open's SYN leaves without an ARP exchange.
func portManager(tb testing.TB) *Manager {
	s := sim.New(1)
	host := osmodel.NewHost(s, "h", osmodel.SPIN, osmodel.DispatchInterrupt)
	nic := netdev.NewNIC(host, "h/eth", netdev.EthernetModel(), &netdev.Link{}, view.MAC{2, 0, 0, 0, 0, 1})
	eth, err := ether.New(host, nic)
	if err != nil {
		tb.Fatal(err)
	}
	nic.SetRecvRef(host.Disp.Ref(ether.RecvEvent))
	addr := view.IP4{10, 0, 0, 1}
	ar, err := arp.New(host, eth, addr)
	if err != nil {
		tb.Fatal(err)
	}
	ar.AddStatic(portPeer, view.MAC{2, 0, 0, 0, 0, 2})
	ipl, err := ip.New(host, ip.Config{Ether: eth, ARP: ar, Addr: addr, Mask: view.IP4{255, 255, 255, 0}})
	if err != nil {
		tb.Fatal(err)
	}
	m, err := New(host, Config{IP: ipl})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// openPort is an active open's TCB without the SYN: allocPort's port and
// newConn's TCB.
func openPort(tb testing.TB, m *Manager) *Conn {
	p, err := m.allocPort()
	if err != nil {
		tb.Fatal(err)
	}
	return m.newConn(p, portPeer, 80)
}

// A port is free again once its TCB is torn down: when nextPort wraps, the
// freed port is handed out and the one still held is skipped.
func TestFreedPortReusedAfterWrap(t *testing.T) {
	m := portManager(t)
	first, held := openPort(t, m), openPort(t, m)
	if first.localPort != 32768 || held.localPort != 32769 {
		t.Fatalf("first ports %d, %d, want 32768, 32769", first.localPort, held.localPort)
	}
	first.teardown(nil, userCause(CauseClose))
	m.nextPort = 49151
	for _, want := range []uint16{49151, 32768, 32770} {
		if c := openPort(t, m); c.localPort != want {
			t.Fatalf("allocPort = %d, want %d", c.localPort, want)
		}
	}
}

// A passive connection holds its listener's port by itself: with no
// listener, the connection still keeps the port from an active open and
// from another implementation of TCP, until it is torn down.
func TestPassiveConnHoldsPortWithoutListener(t *testing.T) {
	m := portManager(t)
	const port = 32768
	// No API closes a listener: a TCB on the port with none is the state
	// one that did would leave.
	c := m.newConn(port, portPeer, 5000)
	if !m.InUse(port) {
		t.Fatal("a port a passive connection holds is not in use")
	}
	m.nextPort = port
	if p, err := m.allocPort(); err != nil || p != port+1 {
		t.Fatalf("allocPort = %d, %v; want %d", p, err, port+1)
	}
	c.teardown(nil, userCause(CauseClose))
	if m.InUse(port) {
		t.Fatal("the port is in use after teardown")
	}
	holdPort(t, m, port)
	if !m.InUse(port) {
		t.Fatal("a port another implementation holds is not in use")
	}
}

// TIME-WAIT keeps its port until the 2·MSL timer tears the TCB down.
func TestClaimRefusesTimeWaitPort(t *testing.T) {
	m := portManager(t)
	c := openPort(t, m)
	c.enterTimeWait(userCause(CauseClose))
	if !m.InUse(c.localPort) {
		t.Fatal("a TIME-WAIT port is not in use")
	}
	m.host.Sim.Run()
	if m.NumConns() != 0 {
		t.Fatalf("%d TCBs live after 2·MSL", m.NumConns())
	}
	if m.InUse(c.localPort) {
		t.Fatal("the port is in use after TIME-WAIT expired")
	}
}

// holdPort makes another implementation of TCP on m's host: a binding
// holding port's key on IP.PacketRecv.
func holdPort(tb testing.TB, m *Manager, port uint16) {
	tb.Helper()
	_, err := m.host.Disp.InstallKey(ip.RecvEvent, ip.RecvKey(view.IPProtoTCP, port),
		event.Ephemeral("tcp.other", func(_ *sim.Task, pkt *mbuf.Mbuf) { pkt.Free() }), 0)
	if err != nil {
		tb.Fatal(err)
	}
}

// listenerGuard is the closure guard a listener on port held before its
// binding became a wildcard key: the port's segments that no connection's
// key on ref takes.
func listenerGuard(ref *event.Ref, port uint16) event.Guard {
	return func(_ *sim.Task, pkt *mbuf.Mbuf) bool {
		s, ok := parseHdr(pkt)
		return ok && s.dstPort == port && !ref.Bound(connKeyOf(port, s.src, s.srcPort))
	}
}

// A listener's wildcard key takes exactly the segments its closure guard
// took: each segment reaches the same binding, or none, with the listener
// keyed and with it closure-guarded, next to a keyed connection on its port
// and one on another port.
func TestListenerKeyAgreesWithClosure(t *testing.T) {
	const port = 80
	other := view.IP4{10, 0, 0, 9}
	d := event.NewDispatcher(event.DefaultCosts())
	var got []string
	record := func(name string) event.Handler {
		return event.Proc(name, func(*sim.Task, *mbuf.Mbuf) { got = append(got, name) })
	}
	for _, e := range []event.Name{"keyed", "closure"} {
		d.MustDeclare(e, event.Options{Key: segKey})
		var err error
		if e == "keyed" {
			_, err = d.InstallKey(e, connKeyOf(port, view.IP4{}, 0), record("listener"), 0)
		} else {
			_, err = d.Install(e, listenerGuard(d.Ref(e), port), record("listener"), 0)
		}
		for _, key := range []event.Key{connKeyOf(port, portPeer, 5000), connKeyOf(port+1, portPeer, 5000)} {
			if err == nil {
				_, err = d.InstallKey(e, key, record("conn"), 0)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	seg := func(src view.IP4, srcPort, dstPort uint16, headLen int, edit func([]byte)) *mbuf.Mbuf {
		b := dgram(nil, []byte("x"))
		copy(b[12:16], src[:])
		b[20], b[21], b[22], b[23] = byte(srcPort>>8), byte(srcPort), byte(dstPort>>8), byte(dstPort)
		if edit != nil {
			edit(b)
		}
		return chain(mbuf.NewPool(), b, headLen)
	}
	cases := []struct {
		name string
		pkt  *mbuf.Mbuf
		want string // the binding it must reach, or ""
	}{
		{"new peer", seg(other, 5000, port, 64, nil), "listener"},
		{"the connection's peer", seg(portPeer, 5000, port, 64, nil), "conn"},
		{"the peer from another port", seg(portPeer, 5001, port, 64, nil), "listener"},
		{"another port's connection", seg(portPeer, 5000, port+1, 64, nil), "conn"},
		{"a port nobody holds", seg(other, 5000, port+2, 64, nil), ""},
		{"ports straddling mbufs", seg(other, 5000, port, 22, nil), "listener"},
		{"data offset past the segment", seg(other, 5000, port, 64, func(b []byte) { b[32] = 15 << 4 }), ""},
		{"truncated", seg(other, 5000, port, 64, func(b []byte) { b[3] = 30 }), ""},
	}
	for _, c := range cases {
		var reached [2]string
		for i, e := range []event.Name{"keyed", "closure"} {
			got = got[:0]
			run := func(task *sim.Task) { d.Raise(task, e, c.pkt) }
			s := sim.New(1)
			sim.NewCPU(s, "cpu").Submit(sim.PrioKernel, "raise", run)
			s.Run()
			reached[i] = strings.Join(got, ",")
		}
		if reached[0] != reached[1] || reached[0] != c.want {
			t.Errorf("%s: keyed reached %q, closure %q; want %q", c.name, reached[0], reached[1], c.want)
		}
	}
}

// Every one of the 16,384 ephemeral ports held: the next active open fails.
func TestAllocPortExhaustion(t *testing.T) {
	m := portManager(t)
	for i := 0; i < 16384; i++ {
		openPort(t, m)
	}
	if p, err := m.allocPort(); err == nil {
		t.Fatalf("allocPort = %d with every ephemeral port held, want an error", p)
	}
}

// BenchmarkConnectAmongTimeWait times one active open and its abandonment
// (Connect, then Close in SYN-SENT) on a host already holding n TCBs in
// TIME-WAIT, as a client of one-connection-per-request HTTP does. Their
// 2·MSL timers are stopped so the count holds for any b.N.
func BenchmarkConnectAmongTimeWait(b *testing.B) {
	for _, n := range []int{10, 10000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			m := portManager(b)
			for i := 0; i < n; i++ {
				c := openPort(b, m)
				c.enterTimeWait(userCause(CauseClose))
				c.twTimer.Stop()
			}
			s := m.host.Sim
			var err error
			connect := func(t *sim.Task) {
				var c *Conn
				if c, err = m.Connect(t, portPeer, 80, nil, false); err == nil {
					c.Close(t)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.host.CPU.Submit(sim.PrioKernel, "connect", connect)
				s.Run()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// A TIME-WAIT connection still holds its 4-tuple: its peer's segments, a new
// SYN included, reach the connection and never the listener on its port.
func TestTimeWaitSegmentSkipsListener(t *testing.T) {
	m := portManager(t)
	const port, peerPort = 80, 0x1234
	if _, err := m.Listen(port, func(*sim.Task, *Conn) App {
		t.Error("the listener accepted a connection")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	c := m.newConn(port, portPeer, peerPort)
	c.enterTimeWait(userCause(CauseClose))
	if !m.recvRef.Bound(connKeyOf(port, portPeer, peerPort)) {
		t.Fatal("a TIME-WAIT connection's key is free")
	}
	flags := []uint8{view.TCPSyn, view.TCPAck, view.TCPAck | view.TCPFin}
	for _, f := range flags {
		seg := dgram(nil, nil)
		copy(seg[12:], []byte{10, 0, 0, 2, 10, 0, 0, 1}) // from the peer
		seg[view.IPv4MinHdrLen+13] = f
		pkt := m.host.Pool.FromBytes(seg, 0)
		m.host.CPU.Submit(sim.PrioKernel, "rx", func(t *sim.Task) { m.recvRef.Raise(t, pkt) })
		m.host.Sim.RunUntil(m.host.Sim.Now() + sim.Millisecond)
	}
	if got, want := c.binding.Stats().Invocations, uint64(len(flags)); got != want {
		t.Fatalf("the TIME-WAIT connection handled %d segments, want %d", got, want)
	}
	if h := m.host.Disp.Health(); h.Invocations != uint64(len(flags)) || h.Panics != 0 {
		t.Fatalf("dispatcher health %+v: a handler besides the connection ran", h)
	}
}

package tcp

import (
	"errors"
	"strconv"
	"testing"

	"plexus/internal/arp"
	"plexus/internal/ether"
	"plexus/internal/ip"
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

// A passive connection holds its listener's port by itself: with the
// listener gone, the connection still keeps the port from an active open and
// from Claim, until it is torn down.
func TestPassiveConnHoldsPortWithoutListener(t *testing.T) {
	m := portManager(t)
	const port = 32768
	if _, err := m.Listen(port, nil); err != nil {
		t.Fatal(err)
	}
	c := m.newConn(port, portPeer, 5000)
	// No API closes a listener; deleting its entry leaves the state one
	// that did would: the connection is the port's only holder.
	delete(m.listeners, port)
	if err := m.Claim(port); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("Claim of a port a passive connection holds = %v, want ErrPortInUse", err)
	}
	m.nextPort = port
	if p, err := m.allocPort(); err != nil || p != port+1 {
		t.Fatalf("allocPort = %d, %v; want %d", p, err, port+1)
	}
	c.teardown(nil, userCause(CauseClose))
	if err := m.Claim(port); err != nil {
		t.Fatalf("Claim after teardown: %v", err)
	}
}

// TIME-WAIT keeps its port until the 2·MSL timer tears the TCB down.
func TestClaimRefusesTimeWaitPort(t *testing.T) {
	m := portManager(t)
	c := openPort(t, m)
	c.enterTimeWait(userCause(CauseClose))
	if err := m.Claim(c.localPort); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("Claim of a TIME-WAIT port = %v, want ErrPortInUse", err)
	}
	m.host.Sim.Run()
	if m.NumConns() != 0 {
		t.Fatalf("%d TCBs live after 2·MSL", m.NumConns())
	}
	if err := m.Claim(c.localPort); err != nil {
		t.Fatalf("Claim after TIME-WAIT expired: %v", err)
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

package plexus

import (
	"testing"

	"plexus/internal/netdev"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// A packet whose event has handlers but none that take it meets the event's
// NoMatch action on every boundary, including the ones that defer the raise
// to a kernel thread or softirq: a datagram to an unbound port is answered
// with an ICMP unreachable, a SYN to a closed port with a reset, and nothing
// stays allocated.
func TestNoMatchOnEveryBoundary(t *testing.T) {
	for _, c := range boundaries {
		t.Run(c.name, func(t *testing.T) {
			spec := func(name string) HostSpec { return HostSpec{Name: name, Personality: c.p, Dispatch: c.d} }
			n, a, b, err := TwoHosts(1, netdev.EthernetModel(), spec("a"), spec("b"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.OpenUDP(UDPAppOptions{Port: 100}, func(*sim.Task, []byte, view.IP4, uint16) {}); err != nil {
				t.Fatal(err)
			}
			if _, err := b.ListenTCP(80, TCPAppOptions{}, nil); err != nil {
				t.Fatal(err)
			}
			sender, err := a.OpenUDP(UDPAppOptions{}, func(*sim.Task, []byte, view.IP4, uint16) {})
			if err != nil {
				t.Fatal(err)
			}
			a.Spawn("client", func(task *sim.Task) {
				if err := sender.Send(task, b.Addr(), 200, []byte("hello")); err != nil {
					t.Errorf("send: %v", err)
				}
				if _, err := a.ConnectTCP(task, b.Addr(), 81, TCPAppOptions{}); err != nil {
					t.Errorf("connect: %v", err)
				}
			})
			n.Sim.RunUntil(2 * sim.Second)
			us, ts := b.UDP.Stats(), b.TCP.Stats()
			if us.Delivered != 0 || us.NoPort != 1 {
				t.Errorf("udp Delivered=%d NoPort=%d, want 0 and 1", us.Delivered, us.NoPort)
			}
			if sent := b.ICMP.Stats().UnreachSent; sent != 1 {
				t.Errorf("icmp UnreachSent=%d, want 1", sent)
			}
			if ts.NoMatch != 1 {
				t.Errorf("tcp NoMatch=%d, want 1", ts.NoMatch)
			}
			for _, st := range []*Stack{a, b} {
				if inUse := st.Host.Pool.Stats().InUse; inUse != 0 {
					t.Errorf("%s: %d mbufs in use, want 0", st.Name(), inUse)
				}
			}
		})
	}
}

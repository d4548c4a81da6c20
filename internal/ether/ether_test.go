package ether_test

import (
	"errors"
	"testing"

	"plexus/internal/ether"
	"plexus/internal/event"
	"plexus/internal/ip"
	"plexus/internal/mbuf"
	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/udp"
	"plexus/internal/view"
)

func pair(t *testing.T, interrupt bool) (*plexus.Network, *plexus.Stack, *plexus.Stack) {
	t.Helper()
	dispatch := osmodel.DispatchInterrupt
	if !interrupt {
		dispatch = osmodel.DispatchThread
	}
	spec := func(name string) plexus.HostSpec {
		return plexus.HostSpec{Name: name, Personality: osmodel.SPIN, Dispatch: dispatch}
	}
	n, a, b, err := plexus.TwoHosts(1, netdev.EthernetModel(), spec("a"), spec("b"))
	if err != nil {
		t.Fatal(err)
	}
	return n, a, b
}

func TestSendStampsSourceAddress(t *testing.T) {
	n, a, b := pair(t, true)
	var gotSrc view.MAC
	if _, err := b.Ether.InstallRecv(ether.TypeGuard(0x8999),
		event.Ephemeral("sink", func(task *sim.Task, m *mbuf.Mbuf) {
			defer m.Free()
			eth, err := view.Ethernet(m.Bytes())
			if err == nil {
				gotSrc = eth.Src()
			}
		}), 0); err != nil {
		t.Fatal(err)
	}
	a.Spawn("send", func(task *sim.Task) {
		m := a.Host.Pool.FromBytes([]byte("hi"), 32)
		if err := a.Ether.Send(task, b.NIC.MAC(), 0x8999, m); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	n.Sim.Run()
	// The source field is always overwritten with the interface address
	// (anti-spoofing, §3.1), regardless of what the extension wrote.
	if gotSrc != a.NIC.MAC() {
		t.Fatalf("source = %v, want %v", gotSrc, a.NIC.MAC())
	}
}

// Interrupt-mode stacks declare Ethernet.PacketRecv RequireEphemeral; the
// manager rejects non-EPHEMERAL handlers (paper §3.3 / Figure 3).
func TestManagerRejectsNonEphemeralAtInterruptLevel(t *testing.T) {
	_, a, _ := pair(t, true)
	_, err := a.Ether.InstallRecv(nil, event.Proc("NotEphemeral", func(*sim.Task, *mbuf.Mbuf) {}), 0)
	if !errors.Is(err, event.ErrNotEphemeral) {
		t.Fatalf("err = %v, want ErrNotEphemeral", err)
	}
	if _, err := a.Ether.InstallRecv(ether.TypeGuard(0x9000),
		event.Ephemeral("GoodHandler", func(task *sim.Task, m *mbuf.Mbuf) { m.Free() }), 0); err != nil {
		t.Fatalf("EPHEMERAL handler rejected: %v", err)
	}
}

// Thread-mode stacks lift the restriction: handlers run on kernel threads.
func TestThreadModeAcceptsNonEphemeral(t *testing.T) {
	_, a, _ := pair(t, false)
	if _, err := a.Ether.InstallRecv(ether.TypeGuard(0x9000),
		event.Proc("NotEphemeral", func(task *sim.Task, m *mbuf.Mbuf) { m.Free() }), 0); err != nil {
		t.Fatalf("thread-mode install rejected: %v", err)
	}
}

// A send tap observes the packet the send path owns, so it runs inline on
// every boundary: deferred to a kernel thread, it would see the frame after
// the NIC had copied and freed it.
func TestSendTapObservesFrames(t *testing.T) {
	payload := []byte("x")
	events := []struct {
		ev  event.Name
		len int // the tapped packet's length: its own header and all above it
	}{
		{ether.SendEvent, view.EthernetHdrLen + view.IPv4MinHdrLen + view.UDPHdrLen + len(payload)},
		{ip.SendEvent, view.IPv4MinHdrLen + view.UDPHdrLen + len(payload)},
		{udp.SendEvent, view.UDPHdrLen + len(payload)},
	}
	for _, bd := range []struct {
		name string
		p    osmodel.Personality
		d    osmodel.DispatchMode
	}{
		{"interrupt", osmodel.SPIN, osmodel.DispatchInterrupt},
		{"thread", osmodel.SPIN, osmodel.DispatchThread},
		{"dux", osmodel.Monolithic, osmodel.DispatchInterrupt},
	} {
		for _, tap := range events {
			t.Run(bd.name+"/"+string(tap.ev), func(t *testing.T) {
				spec := func(name string) plexus.HostSpec {
					return plexus.HostSpec{Name: name, Personality: bd.p, Dispatch: bd.d}
				}
				n, a, b, err := plexus.TwoHosts(1, netdev.EthernetModel(), spec("a"), spec("b"))
				if err != nil {
					t.Fatal(err)
				}
				// inSend is true while the sending task is in Send: a tap
				// that runs inline sees it set.
				inSend, taps := false, 0
				if _, err := a.Host.Disp.Install(tap.ev, nil, event.Proc("tap", func(task *sim.Task, m *mbuf.Mbuf) {
					// Observe only; do not free — the send path owns the packet.
					if m.Freed() || m.PktLen() != tap.len {
						t.Errorf("tap saw freed=%v len %d, want a live packet of %d", m.Freed(), m.PktLen(), tap.len)
					}
					if !inSend {
						t.Error("tap ran outside the sending task")
					}
					taps++
				}), 0); err != nil {
					t.Fatal(err)
				}
				if _, err := b.OpenUDP(plexus.UDPAppOptions{Port: 9}, nil); err != nil {
					t.Fatal(err)
				}
				capp, err := a.OpenUDP(plexus.UDPAppOptions{}, nil)
				if err != nil {
					t.Fatal(err)
				}
				a.Spawn("send", func(task *sim.Task) {
					inSend = true
					_ = capp.Send(task, b.Addr(), 9, payload)
					_ = capp.Send(task, b.Addr(), 9, payload)
					inSend = false
				})
				n.Sim.Run()
				if taps != 2 {
					t.Fatalf("tap saw %d packets, want 2", taps)
				}
			})
		}
	}
}

func TestTypeGuardRejectsShortFrames(t *testing.T) {
	_, a, _ := pair(t, true)
	g := ether.TypeGuard(0x0800)
	m := a.Host.Pool.FromBytes([]byte{1, 2, 3}, 0)
	defer m.Free()
	if g(nil, m) {
		t.Fatal("guard matched a 3-byte frame")
	}
}

func TestLayerAccessors(t *testing.T) {
	_, a, _ := pair(t, true)
	if a.Ether.MTU() != 1500 {
		t.Error("MTU wrong")
	}
	if a.Ether.MAC() != a.NIC.MAC() {
		t.Error("MAC wrong")
	}
	if a.Ether.NIC() != a.NIC {
		t.Error("NIC wrong")
	}
}

package udp_test

import (
	"errors"
	"testing"

	"plexus/internal/event"
	"plexus/internal/ip"
	"plexus/internal/mbuf"
	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/stats"
	"plexus/internal/udp"
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

func TestPortInUse(t *testing.T) {
	_, a, _ := pair(t)
	if _, err := a.UDP.Open(udp.EndpointOptions{Port: 100}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.UDP.Open(udp.EndpointOptions{Port: 100}, nil); !errors.Is(err, udp.ErrPortInUse) {
		t.Fatalf("err = %v, want ErrPortInUse", err)
	}
}

func TestEphemeralAllocationUniqueness(t *testing.T) {
	_, a, _ := pair(t)
	seen := map[uint16]bool{}
	for i := 0; i < 100; i++ {
		ep, err := a.UDP.Open(udp.EndpointOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if seen[ep.Port()] {
			t.Fatalf("duplicate ephemeral port %d", ep.Port())
		}
		seen[ep.Port()] = true
	}
}

func TestClosedEndpointSendFails(t *testing.T) {
	n, a, b := pair(t)
	ep, err := a.UDP.Open(udp.EndpointOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ep.Close()
	ep.Close() // idempotent
	a.Spawn("send", func(task *sim.Task) {
		m := a.Host.Pool.FromBytes([]byte("x"), 64)
		if err := ep.Send(task, b.Addr(), 9, m); !errors.Is(err, udp.ErrClosed) {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	})
	n.Sim.Run()
	if inuse := a.Host.Pool.Stats().InUse; inuse != 0 {
		t.Errorf("leaked %d mbufs on closed-endpoint send", inuse)
	}
}

// buildRawSegment assembles a UDP header + payload claiming srcPort.
func buildRawSegment(st *plexus.Stack, srcPort, dstPort uint16, payload []byte) *mbuf.Mbuf {
	seg := st.Host.Pool.FromBytes(make([]byte, view.UDPHdrLen+len(payload)), 64)
	b, _ := seg.MutableBytes()
	uv, _ := view.UDP(b)
	uv.SetSrcPort(srcPort)
	uv.SetDstPort(dstPort)
	uv.SetLength(seg.PktLen())
	copy(b[view.UDPHdrLen:], payload)
	return seg
}

// SendRaw under the two §3.1 anti-spoofing policies.
func TestSendRawOverwritePolicy(t *testing.T) {
	n, a, b := pair(t)
	var gotSrcPort uint16
	if _, err := b.UDP.Open(udp.EndpointOptions{Port: 9},
		func(task *sim.Task, payload *mbuf.Mbuf, src view.IP4, srcPort uint16) {
			gotSrcPort = srcPort
			payload.Free()
		}); err != nil {
		t.Fatal(err)
	}
	ep, err := a.UDP.Open(udp.EndpointOptions{SpoofPolicy: udp.Overwrite}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.Spawn("send", func(task *sim.Task) {
		// Claim a forged source port: the manager overwrites it.
		seg := buildRawSegment(a, 31337, 9, []byte("spoofed"))
		if err := ep.SendRaw(task, b.Addr(), seg); err != nil {
			t.Errorf("SendRaw: %v", err)
		}
	})
	n.Sim.Run()
	if gotSrcPort != ep.Port() {
		t.Fatalf("receiver saw source port %d, want the endpoint's %d (overwrite policy)", gotSrcPort, ep.Port())
	}
}

func TestSendRawVerifyPolicyBlocksSpoof(t *testing.T) {
	n, a, b := pair(t)
	received := 0
	if _, err := b.UDP.Open(udp.EndpointOptions{Port: 9},
		func(task *sim.Task, payload *mbuf.Mbuf, src view.IP4, srcPort uint16) {
			received++
			payload.Free()
		}); err != nil {
		t.Fatal(err)
	}
	ep, err := a.UDP.Open(udp.EndpointOptions{SpoofPolicy: udp.Verify}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var spoofErr, okErr error
	a.Spawn("send", func(task *sim.Task) {
		spoofErr = ep.SendRaw(task, b.Addr(), buildRawSegment(a, 31337, 9, []byte("forged")))
		okErr = ep.SendRaw(task, b.Addr(), buildRawSegment(a, ep.Port(), 9, []byte("legit")))
	})
	n.Sim.Run()
	if !errors.Is(spoofErr, udp.ErrSpoof) {
		t.Fatalf("spoofed SendRaw: err = %v, want ErrSpoof", spoofErr)
	}
	if okErr != nil {
		t.Fatalf("legitimate SendRaw failed: %v", okErr)
	}
	if received != 1 {
		t.Fatalf("received = %d, want only the legitimate datagram", received)
	}
	if a.UDP.Stats().SpoofsBlocked != 1 {
		t.Errorf("SpoofsBlocked = %d", a.UDP.Stats().SpoofsBlocked)
	}
}

// Send and SendRaw share one tail: each raises the UDP.PacketSend tap and
// records the "udp send" hop, with the datagram from its UDP header on.
func TestSendAndSendRawTapAndHop(t *testing.T) {
	payload := []byte("tapped")
	for _, name := range []string{"Send", "SendRaw"} {
		raw := name == "SendRaw"
		t.Run(name, func(t *testing.T) {
			n, a, b := pair(t)
			rec := stats.NewRecorder()
			n.Sim.SetMetrics(rec)
			var tapped []int
			if _, err := a.Host.Disp.Install(udp.SendEvent, nil, event.Proc("tap", func(task *sim.Task, m *mbuf.Mbuf) {
				tapped = append(tapped, m.PktLen()) // observe only: the send path owns m
			}), 0); err != nil {
				t.Fatal(err)
			}
			ep, err := a.UDP.Open(udp.EndpointOptions{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			a.Spawn("send", func(task *sim.Task) {
				var err error
				if raw {
					err = ep.SendRaw(task, b.Addr(), buildRawSegment(a, ep.Port(), 9, payload))
				} else {
					err = ep.Send(task, b.Addr(), 9, a.Host.Pool.FromBytes(payload, 64))
				}
				if err != nil {
					t.Errorf("%s: %v", name, err)
				}
			})
			n.Sim.Run()
			if want := view.UDPHdrLen + len(payload); len(tapped) != 1 || tapped[0] != want {
				t.Errorf("tap saw lengths %v, want one datagram of %d", tapped, want)
			}
			hops := 0
			for _, h := range rec.Hops() {
				if h.Host == "a" && h.Layer == "udp" && h.Action == "send" {
					hops++
				}
			}
			if hops != 1 {
				t.Errorf("%d udp send hops, want 1", hops)
			}
			if got := a.UDP.Stats().Sent; got != 1 {
				t.Errorf("Sent = %d, want 1", got)
			}
		})
	}
}

// A datagram whose UDP checksum is corrupted in flight must be dropped.
func TestChecksumValidationDrops(t *testing.T) {
	n, a, b := pair(t)
	received := 0
	if _, err := b.OpenUDP(plexus.UDPAppOptions{Port: 9}, func(*sim.Task, []byte, view.IP4, uint16) {
		received++
	}); err != nil {
		t.Fatal(err)
	}
	n.Link.Impair(mangle(func(wire []byte) {
		if len(wire) > 45 {
			wire[45] ^= 0x01 // flip a payload bit; UDP checksum must catch it
		}
	}))
	capp, err := a.OpenUDP(plexus.UDPAppOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.Spawn("send", func(task *sim.Task) {
		_ = capp.Send(task, b.Addr(), 9, []byte("checksummed"))
	})
	n.Sim.Run()
	if received != 0 {
		t.Fatal("corrupted datagram delivered")
	}
	if b.UDP.Stats().BadChecksum != 1 {
		t.Errorf("BadChecksum = %d", b.UDP.Stats().BadChecksum)
	}
}

// With the checksum disabled, the same corruption goes undetected — the
// application opted out of integrity (paper §1.1: "data integrity is
// optional").
func TestChecksumDisabledMissesCorruption(t *testing.T) {
	n, a, b := pair(t)
	var got []byte
	if _, err := b.OpenUDP(plexus.UDPAppOptions{Port: 9}, func(task *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		got = data
	}); err != nil {
		t.Fatal(err)
	}
	n.Link.Impair(mangle(func(wire []byte) {
		if len(wire) > 45 {
			wire[45] ^= 0x01
		}
	}))
	capp, err := a.OpenUDP(plexus.UDPAppOptions{DisableChecksum: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.Spawn("send", func(task *sim.Task) {
		_ = capp.Send(task, b.Addr(), 9, []byte("unprotected"))
	})
	n.Sim.Run()
	if got == nil {
		t.Fatal("checksum-disabled datagram not delivered")
	}
	if string(got) == "unprotected" {
		t.Fatal("mangle did not corrupt the payload; test is vacuous")
	}
}

// holdPort makes another implementation of UDP on st: a binding holding
// port's key on IP.PacketRecv, which takes the port's datagrams from st.UDP.
// It returns the binding and the number of datagrams it has taken.
func holdPort(t *testing.T, st *plexus.Stack, port uint16) (*event.Binding, *int) {
	t.Helper()
	taken := new(int)
	b, err := st.Host.Disp.InstallKey(ip.RecvEvent, ip.RecvKey(view.IPProtoUDP, port),
		event.Ephemeral("udp.other", func(_ *sim.Task, m *mbuf.Mbuf) {
			*taken++
			m.Free()
		}), 0)
	if err != nil {
		t.Fatal(err)
	}
	return b, taken
}

// A port another implementation holds is invisible to the manager.
func TestClaimedPortInvisible(t *testing.T) {
	n, a, b := pair(t)
	other, taken := holdPort(t, b, 9)
	// Binding the held port must fail: it belongs to the other
	// implementation.
	if _, err := b.UDP.Open(udp.EndpointOptions{Port: 9}, nil); !errors.Is(err, udp.ErrPortInUse) {
		t.Fatalf("held port bindable: %v", err)
	}
	capp, err := a.OpenUDP(plexus.UDPAppOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.Spawn("send", func(task *sim.Task) {
		_ = capp.Send(task, b.Addr(), 9, []byte("hidden"))
	})
	n.Sim.Run()
	if *taken != 1 {
		t.Fatalf("the other implementation took %d datagrams, want 1", *taken)
	}
	// The port's key shadowed UDP's wildcard key: the manager never saw
	// the datagram, so it is not counted as received and no
	// port-unreachable is generated.
	if b.UDP.Stats().Received != 0 {
		t.Errorf("Received = %d, want 0 for a held port", b.UDP.Stats().Received)
	}
	if b.ICMP.Stats().UnreachSent != 0 {
		t.Errorf("UnreachSent = %d; held-port traffic belongs to another implementation", b.ICMP.Stats().UnreachSent)
	}
	b.Host.Disp.Uninstall(other)
	a.Spawn("send2", func(task *sim.Task) {
		_ = capp.Send(task, b.Addr(), 9, []byte("visible"))
	})
	n.Sim.Run()
	if b.UDP.Stats().Received != 1 {
		t.Errorf("after the other implementation left, Received = %d", b.UDP.Stats().Received)
	}
}

// The ephemeral allocator never hands out a port another implementation
// holds: that implementation's key would take the endpoint's traffic.
func TestEphemeralSkipsClaimedPort(t *testing.T) {
	_, _, b := pair(t)
	holdPort(t, b, 49152)
	ep, err := b.UDP.Open(udp.EndpointOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ep.Port() == 49152 {
		t.Fatal("ephemeral allocation returned the held port 49152")
	}
}

// A bound port is in use, which another implementation asks before it takes
// a port, until its endpoint closes.
func TestClaimBoundPortFails(t *testing.T) {
	_, a, _ := pair(t)
	ep, err := a.UDP.Open(udp.EndpointOptions{Port: 70}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !a.UDP.InUse(70) {
		t.Fatal("a bound port is not in use")
	}
	ep.Close()
	if a.UDP.InUse(70) {
		t.Fatal("a closed endpoint's port is in use")
	}
}

func TestManagerAccessors(t *testing.T) {
	_, a, _ := pair(t)
	if a.UDP.LocalAddr() != a.Addr() {
		t.Error("LocalAddr wrong")
	}
	ep, err := a.UDP.Open(udp.EndpointOptions{Port: 123}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ep.Port() != 123 || ep.Manager() != a.UDP {
		t.Error("endpoint accessors wrong")
	}
}

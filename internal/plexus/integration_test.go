package plexus

import (
	"bytes"
	"testing"

	"plexus/internal/icmp"

	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/sim"
	"plexus/internal/view"
)

func spinSpec(name string) HostSpec {
	return HostSpec{Name: name, Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt}
}

func duxSpec(name string) HostSpec {
	return HostSpec{Name: name, Personality: osmodel.Monolithic}
}

// boundaries are the three host boundaries application code runs behind:
// an in-kernel extension run from the interrupt, one run from a kernel
// thread, and a DIGITAL UNIX user process.
var boundaries = []struct {
	name string
	p    osmodel.Personality
	d    osmodel.DispatchMode
}{
	{"interrupt", osmodel.SPIN, osmodel.DispatchInterrupt},
	{"thread", osmodel.SPIN, osmodel.DispatchThread},
	{"dux", osmodel.Monolithic, osmodel.DispatchInterrupt},
}

// udpEchoRTT builds a two-host network, runs one UDP echo, and returns the
// application-observed round-trip time.
func udpEchoRTT(t *testing.T, model netdev.Model, a, b HostSpec, payload int) sim.Time {
	t.Helper()
	n, client, server, err := TwoHosts(1, model, a, b)
	if err != nil {
		t.Fatal(err)
	}
	var echoApp *UDPApp
	echoApp, err = server.OpenUDP(UDPAppOptions{Port: 7}, func(task *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		task.Charge(server.Host.Costs.AppHandler)
		if err := echoApp.Send(task, src, srcPort, data); err != nil {
			t.Errorf("echo send: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	var sendTime, recvTime sim.Time
	var got []byte
	capp, err := client.OpenUDP(UDPAppOptions{}, func(task *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		task.Charge(client.Host.Costs.AppHandler)
		recvTime = task.Now()
		got = append([]byte(nil), data...) // valid only during the call
	})
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, payload)
	for i := range msg {
		msg[i] = byte(i)
	}
	client.Spawn("client", func(task *sim.Task) {
		sendTime = task.Now()
		if err := capp.Send(task, server.Addr(), 7, msg); err != nil {
			t.Errorf("client send: %v", err)
		}
	})
	n.Sim.Run()
	if recvTime == 0 {
		t.Fatalf("no echo received (model %s, %s vs %s)", model.Name, a.Personality, b.Personality)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo payload corrupted: got %d bytes", len(got))
	}
	return recvTime - sendTime
}

func TestUDPEchoSPINInterrupt(t *testing.T) {
	rtt := udpEchoRTT(t, netdev.EthernetModel(), spinSpec("spinA"), spinSpec("spinB"), 8)
	t.Logf("SPIN/interrupt Ethernet UDP RTT = %v", rtt)
	// Paper §1: less than 600µs on Ethernet.
	if rtt <= 0 || rtt > 600*sim.Microsecond {
		t.Errorf("RTT %v outside the paper's envelope (0, 600µs]", rtt)
	}
}

func TestUDPEchoThreadModeSlower(t *testing.T) {
	intr := udpEchoRTT(t, netdev.EthernetModel(), spinSpec("a"), spinSpec("b"), 8)
	th := udpEchoRTT(t, netdev.EthernetModel(),
		HostSpec{Name: "a", Personality: osmodel.SPIN, Dispatch: osmodel.DispatchThread},
		HostSpec{Name: "b", Personality: osmodel.SPIN, Dispatch: osmodel.DispatchThread}, 8)
	t.Logf("interrupt=%v thread=%v", intr, th)
	if th <= intr {
		t.Errorf("thread dispatch (%v) should cost more than interrupt (%v)", th, intr)
	}
}

func TestUDPEchoMonolithicSlowest(t *testing.T) {
	spin := udpEchoRTT(t, netdev.EthernetModel(), spinSpec("a"), spinSpec("b"), 8)
	dux := udpEchoRTT(t, netdev.EthernetModel(), duxSpec("a"), duxSpec("b"), 8)
	t.Logf("SPIN=%v DUX=%v ratio=%.2f", spin, dux, float64(dux)/float64(spin))
	if dux <= spin {
		t.Errorf("monolithic RTT (%v) should exceed SPIN RTT (%v)", dux, spin)
	}
	// The paper's gap is roughly 2x; insist on at least 1.5x.
	if float64(dux) < 1.5*float64(spin) {
		t.Errorf("monolithic/SPIN ratio %.2f below 1.5", float64(dux)/float64(spin))
	}
}

func TestUDPEchoAllDevices(t *testing.T) {
	for _, model := range []netdev.Model{netdev.EthernetModel(), netdev.ForeATMModel(), netdev.DECT3Model()} {
		rtt := udpEchoRTT(t, model, spinSpec("a"), spinSpec("b"), 8)
		t.Logf("%s: RTT = %v", model.Name, rtt)
		if rtt <= 0 {
			t.Errorf("%s: no RTT", model.Name)
		}
	}
}

func TestARPResolutionOnFirstPacket(t *testing.T) {
	// No PrimeARP: the first datagram must trigger a request/reply
	// exchange and still arrive.
	n, err := NewNetwork(1, netdev.EthernetModel(), []HostSpec{spinSpec("a"), spinSpec("b")})
	if err != nil {
		t.Fatal(err)
	}
	client, server := n.Hosts[0], n.Hosts[1]
	received := false
	_, err = server.OpenUDP(UDPAppOptions{Port: 9}, func(task *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		received = true
	})
	if err != nil {
		t.Fatal(err)
	}
	capp, err := client.OpenUDP(UDPAppOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	client.Spawn("client", func(task *sim.Task) {
		if err := capp.Send(task, server.Addr(), 9, []byte("hi")); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	n.Sim.Run()
	if !received {
		t.Fatal("datagram lost across ARP resolution")
	}
	if client.ARP.Stats().RequestsSent == 0 || client.ARP.Stats().RepliesRecvd == 0 {
		t.Errorf("ARP exchange missing: %+v", client.ARP.Stats())
	}
	if _, ok := client.ARP.Lookup(server.Addr()); !ok {
		t.Error("mapping not cached after reply")
	}
}

func TestICMPPingReply(t *testing.T) {
	n, a, b, err := TwoHosts(1, netdev.EthernetModel(), spinSpec("a"), spinSpec("b"))
	if err != nil {
		t.Fatal(err)
	}
	var rep *icmp.EchoReply
	var start sim.Time
	a.Spawn("ping", func(task *sim.Task) {
		start = task.Now()
		err := a.ICMP.Ping(task, b.Addr(), 42, 7, []byte("pingpayload"), func(t2 *sim.Task, r icmp.EchoReply) {
			rep = &r
		})
		if err != nil {
			t.Errorf("ping: %v", err)
		}
	})
	n.Sim.Run()
	if rep == nil {
		t.Fatal("no echo reply")
	}
	if rep.From != b.Addr() || rep.Ident != 42 || rep.Seq != 7 || string(rep.Payload) != "pingpayload" {
		t.Errorf("reply fields wrong: %+v", rep)
	}
	if rtt := rep.RTTEnd - start; rtt <= 0 || rtt > sim.Millisecond {
		t.Errorf("ping RTT %v implausible", rtt)
	}
	if b.ICMP.Stats().EchoRequestsRcvd != 1 || a.ICMP.Stats().EchoRepliesRcvd != 1 {
		t.Errorf("icmp stats wrong: a=%+v b=%+v", a.ICMP.Stats(), b.ICMP.Stats())
	}
}

// Fragmentation: a 3000-byte datagram over a 1500-MTU Ethernet must be
// fragmented, reassembled, and delivered intact.
func TestIPFragmentationEndToEnd(t *testing.T) {
	n, client, server, err := TwoHosts(1, netdev.EthernetModel(), spinSpec("a"), spinSpec("b"))
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	_, err = server.OpenUDP(UDPAppOptions{Port: 5000}, func(task *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		got = data
	})
	if err != nil {
		t.Fatal(err)
	}
	capp, err := client.OpenUDP(UDPAppOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 3000)
	for i := range msg {
		msg[i] = byte(i * 13)
	}
	client.Spawn("client", func(task *sim.Task) {
		if err := capp.Send(task, server.Addr(), 5000, msg); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	n.Sim.Run()
	if !bytes.Equal(got, msg) {
		t.Fatalf("fragmented datagram corrupted: got %d bytes, want %d", len(got), len(msg))
	}
	if server.IP.Stats().FragmentsRcvd < 2 || server.IP.Stats().Reassembled != 1 {
		t.Errorf("reassembly stats wrong: %+v", server.IP.Stats())
	}
}

// Anti-snooping: an endpoint must not see datagrams for other ports, and a
// connected endpoint must not see datagrams from other peers.
func TestEndpointIsolation(t *testing.T) {
	n, err := NewNetwork(1, netdev.EthernetModel(), []HostSpec{spinSpec("a"), spinSpec("b"), spinSpec("c")})
	if err != nil {
		t.Fatal(err)
	}
	n.PrimeARP()
	a, b, c := n.Hosts[0], n.Hosts[1], n.Hosts[2]

	var wrongPort, connOK, connLeak int
	// Endpoint on port 100, should see nothing (traffic goes to 200).
	if _, err := b.OpenUDP(UDPAppOptions{Port: 100}, func(*sim.Task, []byte, view.IP4, uint16) {
		wrongPort++
	}); err != nil {
		t.Fatal(err)
	}
	// Connected endpoint on port 200 bound to peer a only.
	if _, err := b.OpenUDP(UDPAppOptions{Port: 200, Remote: a.Addr()}, func(*sim.Task, []byte, view.IP4, uint16) {
		connOK++
	}); err != nil {
		t.Fatal(err)
	}

	sendFrom := func(st *Stack, label string) {
		app, err := st.OpenUDP(UDPAppOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		st.Spawn(label, func(task *sim.Task) {
			if err := app.Send(task, b.Addr(), 200, []byte(label)); err != nil {
				t.Errorf("%s: %v", label, err)
			}
		})
	}
	sendFrom(a, "from-a")
	sendFrom(c, "from-c")
	n.Sim.Run()
	if wrongPort != 0 {
		t.Errorf("port-100 endpoint snooped %d datagrams", wrongPort)
	}
	if connOK != 1 {
		t.Errorf("connected endpoint got %d datagrams from its peer, want 1", connOK)
	}
	if connLeak != 0 {
		t.Errorf("connected endpoint leaked %d foreign datagrams", connLeak)
	}
	// c's datagram matched no endpoint: port-unreachable accounting.
	if b.UDP.Stats().NoPort != 1 {
		t.Errorf("NoPort = %d, want 1", b.UDP.Stats().NoPort)
	}
	if b.ICMP.Stats().UnreachSent != 1 {
		t.Errorf("UnreachSent = %d, want 1", b.ICMP.Stats().UnreachSent)
	}
}

// Runtime adaptation: closing an endpoint mid-run uninstalls its handler;
// later datagrams no longer reach it.
func TestEndpointCloseStopsDelivery(t *testing.T) {
	n, client, server, err := TwoHosts(1, netdev.EthernetModel(), spinSpec("a"), spinSpec("b"))
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	sapp, err := server.OpenUDP(UDPAppOptions{Port: 7}, func(*sim.Task, []byte, view.IP4, uint16) { got++ })
	if err != nil {
		t.Fatal(err)
	}
	capp, err := client.OpenUDP(UDPAppOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	send := func(at sim.Time) {
		client.SpawnAt(at, "send", func(task *sim.Task) {
			_ = capp.Send(task, server.Addr(), 7, []byte("x"))
		})
	}
	send(0)
	n.Sim.At(5*sim.Millisecond, "close", sapp.ep.Close)
	send(10 * sim.Millisecond)
	n.Sim.Run()
	if got != 1 {
		t.Fatalf("endpoint received %d datagrams, want 1 (one before close)", got)
	}
}

// The checksum-disabled UDP variant (§1.1) must interoperate.
func TestChecksumDisabledUDP(t *testing.T) {
	n, client, server, err := TwoHosts(1, netdev.EthernetModel(), spinSpec("a"), spinSpec("b"))
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	if _, err := server.OpenUDP(UDPAppOptions{Port: 6000}, func(task *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		got = data
	}); err != nil {
		t.Fatal(err)
	}
	capp, err := client.OpenUDP(UDPAppOptions{DisableChecksum: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	client.Spawn("send", func(task *sim.Task) {
		if err := capp.Send(task, server.Addr(), 6000, []byte("no-checksum")); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	n.Sim.Run()
	if string(got) != "no-checksum" {
		t.Fatalf("checksum-disabled datagram lost: %q", got)
	}
}

// Openness: per-flow latency must not degrade because other endpoints exist —
// guards filter cheaply. (This pins the guard-evaluation cost to the
// dispatch-cost scale rather than the protocol-processing scale.)
func TestGuardChainScaling(t *testing.T) {
	base := udpEchoRTT(t, netdev.EthernetModel(), spinSpec("a"), spinSpec("b"), 8)

	n, client, server, err := TwoHosts(1, netdev.EthernetModel(), spinSpec("a"), spinSpec("b"))
	if err != nil {
		t.Fatal(err)
	}
	// 50 extra endpoints whose guards all reject.
	for p := uint16(2000); p < 2050; p++ {
		if _, err := server.OpenUDP(UDPAppOptions{Port: p}, nil); err != nil {
			t.Fatal(err)
		}
	}
	var echoApp *UDPApp
	echoApp, err = server.OpenUDP(UDPAppOptions{Port: 7}, func(task *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		task.Charge(server.Host.Costs.AppHandler)
		_ = echoApp.Send(task, src, srcPort, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	var sendTime, recvTime sim.Time
	capp, err := client.OpenUDP(UDPAppOptions{}, func(task *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		task.Charge(client.Host.Costs.AppHandler)
		recvTime = task.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	client.Spawn("client", func(task *sim.Task) {
		sendTime = task.Now()
		_ = capp.Send(task, server.Addr(), 7, []byte("12345678"))
	})
	n.Sim.Run()
	loaded := recvTime - sendTime
	t.Logf("base=%v with-50-endpoints=%v", base, loaded)
	if loaded > base+60*sim.Microsecond {
		t.Errorf("50 extra guards added %v; guards are too expensive", loaded-base)
	}
}

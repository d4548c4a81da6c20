package plexus

import (
	"testing"

	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/sim"
	"plexus/internal/tcp"
	"plexus/internal/view"
)

// TestUDPEchoSteadyStateAllocs pins the zero-alloc property of the per-packet
// path: once warm (ARP primed, pools and free lists populated), a complete
// application-to-application UDP echo round — two sends, two wire crossings,
// two interrupt deliveries, full header processing — allocates nothing.
func TestUDPEchoSteadyStateAllocs(t *testing.T) {
	spec := func(name string) HostSpec {
		return HostSpec{Name: name, Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt}
	}
	n, client, server, err := TwoHosts(1, netdev.EthernetModel(), spec("client"), spec("server"))
	if err != nil {
		t.Fatal(err)
	}
	var echo *UDPApp
	echo, err = server.OpenUDP(UDPAppOptions{Port: 7}, func(tk *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		_ = echo.Send(tk, src, srcPort, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 8)
	rounds := 0
	var capp *UDPApp
	capp, err = client.OpenUDP(UDPAppOptions{}, func(tk *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		rounds++
		_ = capp.Send(tk, server.Addr(), 7, msg)
	})
	if err != nil {
		t.Fatal(err)
	}
	client.Spawn("kick", func(tk *sim.Task) { _ = capp.Send(tk, server.Addr(), 7, msg) })

	runRounds := func(k int) {
		target := rounds + k
		for rounds < target {
			if !n.Sim.Step() {
				t.Fatal("simulation drained before completing echo rounds")
			}
		}
	}
	// Warm up: prime every free list (events, tasks, submissions, mbufs,
	// clusters, wire frames, receive buffers).
	runRounds(64)

	avg := testing.AllocsPerRun(100, func() { runRounds(1) })
	if avg != 0 {
		t.Fatalf("steady-state UDP echo round allocates %.2f/iter, want 0", avg)
	}
}

// TestUDPEchoSteadyStateAllocsThroughSwitch pins the same property across the
// switched fabric: the per-frame switch path (ingress jobs, MAC lookup, the
// departure ring) must add nothing to the allocation budget.
func TestUDPEchoSteadyStateAllocsThroughSwitch(t *testing.T) {
	top, err := NewTopology(1, nil, []SegmentSpec{
		{Name: "lan", Model: netdev.EthernetModel(), Subnet: view.IP4{10, 0, 0, 0}, Switched: true,
			Hosts: []HostSpec{
				{Name: "client", Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt},
				{Name: "server", Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt},
			}},
	})
	if err != nil {
		t.Fatal(err)
	}
	top.PrimeARP()
	client, server := top.Host("client"), top.Host("server")

	var echo *UDPApp
	echo, err = server.OpenUDP(UDPAppOptions{Port: 7}, func(tk *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		_ = echo.Send(tk, src, srcPort, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 8)
	rounds := 0
	var capp *UDPApp
	capp, err = client.OpenUDP(UDPAppOptions{}, func(tk *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		rounds++
		_ = capp.Send(tk, server.Addr(), 7, msg)
	})
	if err != nil {
		t.Fatal(err)
	}
	client.Spawn("kick", func(tk *sim.Task) { _ = capp.Send(tk, server.Addr(), 7, msg) })

	runRounds := func(k int) {
		target := rounds + k
		for rounds < target {
			if !top.Sim.Step() {
				t.Fatal("simulation drained before completing echo rounds")
			}
		}
	}
	runRounds(64)

	avg := testing.AllocsPerRun(100, func() { runRounds(1) })
	if avg != 0 {
		t.Fatalf("steady-state switched UDP echo round allocates %.2f/iter, want 0", avg)
	}
}

// TestTCPSteadyStateAllocs pins the zero-alloc property of the established
// TCP data path, for every congestion-control algorithm: once warm, writing
// three segments' worth and running until all of it is delivered and
// acknowledged — ring append, header built in place, gather into mbufs,
// parse-once receive, scratch linearisation, an immediate and a delayed ACK,
// retransmit-timer arm and disarm, and (BBR) the pace timer between
// back-to-back segments — allocates nothing.
func TestTCPSteadyStateAllocs(t *testing.T) {
	for _, algo := range tcp.CCNames() {
		t.Run(algo, func(t *testing.T) {
			spec := func(name string) HostSpec {
				return HostSpec{Name: name, Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt, CC: algo}
			}
			n, client, server, err := TwoHosts(1, netdev.EthernetModel(), spec("client"), spec("server"))
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			if _, err := server.ListenTCP(5001, TCPAppOptions{
				OnRecv: func(tk *sim.Task, conn *TCPApp, data []byte) { got += len(data) },
			}, nil); err != nil {
				t.Fatal(err)
			}
			var app *TCPApp
			client.Spawn("dial", func(tk *sim.Task) {
				app, err = client.ConnectTCP(tk, server.Addr(), 5001, TCPAppOptions{})
			})
			n.Sim.RunUntil(10 * sim.Millisecond)
			if err != nil || app == nil || app.State() != tcp.StateEstablished {
				t.Fatalf("handshake incomplete: %v", err)
			}
			msg := make([]byte, 3*client.TCP.MSS())
			write := func(tk *sim.Task) { _ = app.Send(tk, msg) }
			sent := 0
			round := func() {
				sent += len(msg)
				client.Spawn("write", write)
				for got < sent || app.Conn().SendBufBytes() > 0 {
					if !n.Sim.Step() {
						t.Fatal("simulation drained before the data was acknowledged")
					}
				}
			}
			// Warm up: grow the ring and scratch buffers, prime the event,
			// submission and mbuf free lists, and let cancelled timers from
			// the handshake drain out of the event queue.
			for i := 0; i < 64; i++ {
				round()
			}
			if avg := testing.AllocsPerRun(100, round); avg != 0 {
				t.Fatalf("steady-state TCP round allocates %.2f/iter, want 0", avg)
			}
			if st := app.Conn().Stats(); st.Retransmits != 0 {
				t.Fatalf("%d retransmissions on a clean link", st.Retransmits)
			}
		})
	}
}

package plexus

import (
	"bytes"
	"errors"
	"testing"

	"plexus/internal/event"
	"plexus/internal/fault"
	"plexus/internal/ip"
	"plexus/internal/mbuf"
	"plexus/internal/netdev"
	"plexus/internal/sim"
	"plexus/internal/tcp"
	"plexus/internal/view"
)

// tcpTransfer runs a one-way bulk transfer of size bytes from client to
// server, under an optional loss model, and returns (received bytes,
// elapsed send-to-last-byte time).
func tcpTransfer(t *testing.T, model netdev.Model, a, b HostSpec, size int, loss fault.DropModel) ([]byte, sim.Time) {
	t.Helper()
	n, client, server, err := TwoHosts(1, model, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if loss != nil {
		fault.Attach(n.Sim, n.Link).Lose(loss)
	}
	var rcvd bytes.Buffer
	var lastByteAt sim.Time
	var serverConn *TCPApp
	_, err = server.ListenTCP(80, TCPAppOptions{
		OnRecv: func(task *sim.Task, conn *TCPApp, data []byte) {
			rcvd.Write(data)
			lastByteAt = task.Now()
		},
		OnPeerFin: func(task *sim.Task, conn *TCPApp) {
			conn.Close(task)
		},
	}, func(task *sim.Task, conn *TCPApp) {
		serverConn = conn
	})
	if err != nil {
		t.Fatal(err)
	}

	msg := make([]byte, size)
	for i := range msg {
		msg[i] = byte(i*31 + i>>8)
	}
	var startAt sim.Time
	client.Spawn("client", func(task *sim.Task) {
		startAt = task.Now()
		_, err := client.ConnectTCP(task, server.Addr(), 80, TCPAppOptions{
			OnEstablished: func(task2 *sim.Task, conn *TCPApp) {
				if err := conn.Send(task2, msg); err != nil {
					t.Errorf("send: %v", err)
				}
				conn.Close(task2)
			},
		})
		if err != nil {
			t.Errorf("connect: %v", err)
		}
	})
	// TCP has self-renewing timers (TIME-WAIT etc.); run to quiescence
	// bounded by a generous wall.
	n.Sim.RunUntil(5 * 60 * sim.Second)
	_ = serverConn
	if !bytes.Equal(rcvd.Bytes(), msg) {
		t.Fatalf("stream corrupted: got %d bytes want %d (model %s)", rcvd.Len(), size, model.Name)
	}
	return rcvd.Bytes(), lastByteAt - startAt
}

func TestTCPHandshakeAndSmallTransfer(t *testing.T) {
	_, elapsed := tcpTransfer(t, netdev.EthernetModel(), spinSpec("a"), spinSpec("b"), 100, nil)
	t.Logf("100B transfer took %v", elapsed)
	if elapsed <= 0 || elapsed > 5*sim.Millisecond {
		t.Errorf("small transfer time %v implausible", elapsed)
	}
}

func TestTCPBulkTransferEthernet(t *testing.T) {
	size := 1 << 20
	_, elapsed := tcpTransfer(t, netdev.EthernetModel(), spinSpec("a"), spinSpec("b"), size, nil)
	mbps := float64(size) * 8 / elapsed.Seconds() / 1e6
	t.Logf("Ethernet TCP: %d bytes in %v = %.2f Mb/s", size, elapsed, mbps)
	// Paper §4.2: 8.9 Mb/s on the 10 Mb/s Ethernet. Accept 7.5–10.
	if mbps < 7.5 || mbps > 10 {
		t.Errorf("Ethernet TCP throughput %.2f Mb/s outside [7.5, 10]", mbps)
	}
}

func TestTCPBulkTransferATMFasterOnSPIN(t *testing.T) {
	size := 1 << 21
	_, spinT := tcpTransfer(t, netdev.ForeATMModel(), spinSpec("a"), spinSpec("b"), size, nil)
	_, duxT := tcpTransfer(t, netdev.ForeATMModel(), duxSpec("a"), duxSpec("b"), size, nil)
	spinM := float64(size) * 8 / spinT.Seconds() / 1e6
	duxM := float64(size) * 8 / duxT.Seconds() / 1e6
	t.Logf("ATM TCP: SPIN %.1f Mb/s, DUX %.1f Mb/s", spinM, duxM)
	// Paper §4.2: 33 vs 27.9 Mb/s — SPIN wins on the PIO-limited device.
	if spinM <= duxM {
		t.Errorf("SPIN (%.1f) should beat DUX (%.1f) on PIO ATM", spinM, duxM)
	}
}

func TestTCPRetransmissionUnderLoss(t *testing.T) {
	// Drop every 20th data-bearing frame (MinSize leaves ACKs and control
	// segments alone), up to 20 drops.
	lm := &fault.Limit{Max: 20, M: fault.MinSize{N: 100, M: &fault.EveryNth{N: 20}}}
	size := 1 << 18
	got, elapsed := tcpTransfer(t, netdev.EthernetModel(), spinSpec("a"), spinSpec("b"), size, lm)
	t.Logf("transferred %d bytes in %v with %d injected drops", len(got), elapsed, lm.Fired())
	if lm.Fired() == 0 {
		t.Fatal("loss injector never fired; test is vacuous")
	}
}

func TestTCPConnectionRefusedGetsRST(t *testing.T) {
	n, client, server, err := TwoHosts(1, netdev.EthernetModel(), spinSpec("a"), spinSpec("b"))
	if err != nil {
		t.Fatal(err)
	}
	var closeErr error
	closed := false
	client.Spawn("client", func(task *sim.Task) {
		_, err := client.ConnectTCP(task, server.Addr(), 81, TCPAppOptions{
			OnClose: func(conn *TCPApp, err error) {
				closed = true
				closeErr = err
			},
		})
		if err != nil {
			t.Errorf("connect: %v", err)
		}
	})
	n.Sim.RunUntil(10 * sim.Second)
	if !closed {
		t.Fatal("connection to closed port never terminated")
	}
	if closeErr == nil {
		t.Fatal("expected reset error")
	}
	if server.TCP.Stats().RSTsSent == 0 {
		t.Error("server sent no RST")
	}
}

func TestTCPOrderlyCloseBothSides(t *testing.T) {
	n, client, server, err := TwoHosts(1, netdev.EthernetModel(), spinSpec("a"), spinSpec("b"))
	if err != nil {
		t.Fatal(err)
	}
	var clientConn, serverConn *TCPApp
	var clientErr, serverErr error
	clientClosed, serverClosed := false, false
	_, err = server.ListenTCP(80, TCPAppOptions{
		OnPeerFin: func(task *sim.Task, conn *TCPApp) { conn.Close(task) },
		OnClose: func(conn *TCPApp, err error) {
			serverClosed = true
			serverErr = err
		},
	}, func(task *sim.Task, conn *TCPApp) { serverConn = conn })
	if err != nil {
		t.Fatal(err)
	}
	client.Spawn("client", func(task *sim.Task) {
		conn, err := client.ConnectTCP(task, server.Addr(), 80, TCPAppOptions{
			OnEstablished: func(task2 *sim.Task, conn *TCPApp) {
				_ = conn.Send(task2, []byte("goodbye"))
				conn.Close(task2)
			},
			OnClose: func(conn *TCPApp, err error) {
				clientClosed = true
				clientErr = err
			},
		})
		clientConn = conn
		if err != nil {
			t.Errorf("connect: %v", err)
		}
	})
	n.Sim.RunUntil(5 * 60 * sim.Second)
	if !clientClosed || !serverClosed {
		t.Fatalf("connections not fully closed: client=%v server=%v (client state %v, server state %v)",
			clientClosed, serverClosed, stateOf(clientConn), stateOf(serverConn))
	}
	if clientErr != nil || serverErr != nil {
		t.Errorf("orderly close reported errors: client=%v server=%v", clientErr, serverErr)
	}
}

// holdTCPPort makes another implementation of TCP on st: a binding holding
// port's key on IP.PacketRecv, which takes the port's segments from st.TCP.
func holdTCPPort(t *testing.T, st *Stack, port uint16) {
	t.Helper()
	_, err := st.Host.Disp.InstallKey(ip.RecvEvent, ip.RecvKey(view.IPProtoTCP, port),
		event.Ephemeral("tcp.other", func(_ *sim.Task, m *mbuf.Mbuf) { m.Free() }), 0)
	if err != nil {
		t.Fatal(err)
	}
}

// An active open never takes a local port another implementation holds:
// its key would take the SYN-ACK, leaving the connection stuck in SYN-SENT.
func TestTCPConnectSkipsClaimedPort(t *testing.T) {
	n, client, server, err := TwoHosts(1, netdev.EthernetModel(), spinSpec("a"), spinSpec("b"))
	if err != nil {
		t.Fatal(err)
	}
	holdTCPPort(t, client, 32768)
	if _, err := server.ListenTCP(80, TCPAppOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	var conn *TCPApp
	client.Spawn("client", func(task *sim.Task) {
		conn, err = client.ConnectTCP(task, server.Addr(), 80, TCPAppOptions{})
		if err != nil {
			t.Errorf("connect: %v", err)
		}
	})
	n.Sim.RunUntil(5 * sim.Second)
	if conn == nil || conn.Conn() == nil {
		t.Fatal("no connection")
	}
	if p := conn.Conn().LocalPort(); p == 32768 {
		t.Errorf("active open took the claimed port %d", p)
	}
	if s := conn.State(); s != tcp.StateEstablished {
		t.Errorf("state after 5s = %v, want ESTABLISHED", s)
	}
}

// A listener never binds a port another implementation holds: its key would
// take every SYN, so the listen must fail instead.
func TestTCPListenRefusesClaimedPort(t *testing.T) {
	_, _, server, err := TwoHosts(1, netdev.EthernetModel(), spinSpec("a"), spinSpec("b"))
	if err != nil {
		t.Fatal(err)
	}
	holdTCPPort(t, server, 8000)
	if _, err := server.ListenTCP(8000, TCPAppOptions{}, nil); !errors.Is(err, tcp.ErrPortInUse) {
		t.Fatalf("ListenTCP on a claimed port: err = %v, want ErrPortInUse", err)
	}
}

func stateOf(c *TCPApp) tcp.State {
	if c == nil || c.Conn() == nil {
		return tcp.StateClosed
	}
	return c.State()
}

// §3.1: two implementations of TCP coexist — TCP-standard handles everything
// except the ports TCP-special owns. Here "special" is a second listener set
// whose connections tag their payloads; both must work simultaneously.
func TestTwoTCPImplementationsCoexist(t *testing.T) {
	n, client, server, err := TwoHosts(1, netdev.EthernetModel(), spinSpec("a"), spinSpec("b"))
	if err != nil {
		t.Fatal(err)
	}
	results := map[uint16]string{}
	mk := func(port uint16, tag string) {
		_, err := server.ListenTCP(port, TCPAppOptions{
			OnRecv: func(task *sim.Task, conn *TCPApp, data []byte) {
				results[port] = tag + ":" + string(data)
			},
			OnPeerFin: func(task *sim.Task, conn *TCPApp) { conn.Close(task) },
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	mk(80, "standard")
	mk(8080, "special")
	for _, port := range []uint16{80, 8080} {
		port := port
		client.Spawn("client", func(task *sim.Task) {
			_, err := client.ConnectTCP(task, server.Addr(), port, TCPAppOptions{
				OnEstablished: func(task2 *sim.Task, conn *TCPApp) {
					_ = conn.Send(task2, []byte("hello"))
					conn.Close(task2)
				},
			})
			if err != nil {
				t.Errorf("connect %d: %v", port, err)
			}
		})
	}
	n.Sim.RunUntil(5 * 60 * sim.Second)
	if results[80] != "standard:hello" || results[8080] != "special:hello" {
		t.Fatalf("implementations interfered: %v", results)
	}
}

// Bidirectional traffic on one connection.
func TestTCPEchoRoundTrip(t *testing.T) {
	n, client, server, err := TwoHosts(1, netdev.EthernetModel(), spinSpec("a"), spinSpec("b"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = server.ListenTCP(7, TCPAppOptions{
		OnRecv: func(task *sim.Task, conn *TCPApp, data []byte) {
			_ = conn.Send(task, bytes.ToUpper(data))
		},
		OnPeerFin: func(task *sim.Task, conn *TCPApp) { conn.Close(task) },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	client.Spawn("client", func(task *sim.Task) {
		_, err := client.ConnectTCP(task, server.Addr(), 7, TCPAppOptions{
			OnEstablished: func(task2 *sim.Task, conn *TCPApp) {
				_ = conn.Send(task2, []byte("hello tcp echo"))
			},
			OnRecv: func(task2 *sim.Task, conn *TCPApp, data []byte) {
				got.Write(data)
				if got.Len() >= len("hello tcp echo") {
					conn.Close(task2)
				}
			},
		})
		if err != nil {
			t.Errorf("connect: %v", err)
		}
	})
	n.Sim.RunUntil(5 * 60 * sim.Second)
	if got.String() != "HELLO TCP ECHO" {
		t.Fatalf("echo = %q", got.String())
	}
}

// Heavy-loss transfer still completes (timeout-driven recovery).
func TestTCPHeavyLossEventuallyCompletes(t *testing.T) {
	// Drop ~14% of ALL frames, both directions.
	size := 64 << 10
	got, elapsed := tcpTransfer(t, netdev.EthernetModel(), spinSpec("a"), spinSpec("b"), size, &fault.EveryNth{N: 7})
	t.Logf("64KB under 14%% loss in %v", elapsed)
	if len(got) != size {
		t.Fatalf("incomplete transfer: %d/%d", len(got), size)
	}
}

func TestTCPStatsPlausible(t *testing.T) {
	n, client, server, err := TwoHosts(1, netdev.EthernetModel(), spinSpec("a"), spinSpec("b"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = server.ListenTCP(80, TCPAppOptions{
		OnPeerFin: func(task *sim.Task, conn *TCPApp) { conn.Close(task) },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var conn *TCPApp
	client.Spawn("client", func(task *sim.Task) {
		conn, _ = client.ConnectTCP(task, server.Addr(), 80, TCPAppOptions{
			OnEstablished: func(task2 *sim.Task, c *TCPApp) {
				_ = c.Send(task2, make([]byte, 10000))
				c.Close(task2)
			},
		})
	})
	n.Sim.RunUntil(5 * 60 * sim.Second)
	if conn == nil {
		t.Fatal("no connection")
	}
	cs := conn.Conn().Stats()
	if cs.BytesSent != 10000 {
		t.Errorf("BytesSent = %d", cs.BytesSent)
	}
	if cs.Retransmits != 0 {
		t.Errorf("unexpected retransmits on a lossless link: %d", cs.Retransmits)
	}
	ms := client.TCP.Stats()
	if ms.SegsOut == 0 || ms.SegsIn == 0 || ms.BadChecksum != 0 {
		t.Errorf("manager stats implausible: %+v", ms)
	}
}

// Reordered deliveries exercise the receiver's out-of-order buffering: the
// stream must still arrive intact and in order.
func TestTCPReorderingTolerated(t *testing.T) {
	n, client, server, err := TwoHosts(1, netdev.EthernetModel(), spinSpec("a"), spinSpec("b"))
	if err != nil {
		t.Fatal(err)
	}
	// Every 5th large frame is held back 5ms: later segments overtake it.
	in := fault.Attach(n.Sim, n.Link).
		Delay(&fault.PeriodicDelay{N: 5, Hold: 5 * sim.Millisecond, MinSize: 500})
	var rcvd bytes.Buffer
	_, err = server.ListenTCP(80, TCPAppOptions{
		OnRecv:    func(task *sim.Task, conn *TCPApp, data []byte) { rcvd.Write(data) },
		OnPeerFin: func(task *sim.Task, conn *TCPApp) { conn.Close(task) },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	size := 256 << 10
	msg := make([]byte, size)
	for i := range msg {
		msg[i] = byte(i*11 + i>>9)
	}
	client.Spawn("client", func(task *sim.Task) {
		_, _ = client.ConnectTCP(task, server.Addr(), 80, TCPAppOptions{
			OnEstablished: func(t2 *sim.Task, conn *TCPApp) {
				_ = conn.Send(t2, msg)
				conn.Close(t2)
			},
		})
	})
	n.Sim.RunUntil(10 * 60 * sim.Second)
	if !bytes.Equal(rcvd.Bytes(), msg) {
		t.Fatalf("reordered stream corrupted: %d/%d bytes", rcvd.Len(), size)
	}
	if in.Stats().Delayed < 10 {
		t.Fatal("jitter injector barely fired; test is vacuous")
	}
}

// After a complete UDP exchange quiesces, every mbuf must be back in its
// pool: the graph's ownership discipline does not leak packets.
func TestNoMbufLeaksAfterUDPExchange(t *testing.T) {
	n, client, server, err := TwoHosts(1, netdev.EthernetModel(), spinSpec("a"), spinSpec("b"))
	if err != nil {
		t.Fatal(err)
	}
	var echo *UDPApp
	echo, err = server.OpenUDP(UDPAppOptions{Port: 7}, func(task *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		_ = echo.Send(task, src, srcPort, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	capp, err := client.OpenUDP(UDPAppOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		at := sim.Time(i) * sim.Millisecond
		client.SpawnAt(at, "send", func(task *sim.Task) {
			_ = capp.Send(task, server.Addr(), 7, make([]byte, 100+i*50))
		})
	}
	n.Sim.Run()
	for _, st := range []*Stack{client, server} {
		if inuse := st.Host.Pool.Stats().InUse; inuse != 0 {
			t.Errorf("%s: %d mbufs leaked", st.Name(), inuse)
		}
	}
}

// The same audit across a full TCP connection lifecycle (handshake, data,
// FIN exchange, TIME-WAIT expiry).
func TestNoMbufLeaksAfterTCPLifecycle(t *testing.T) {
	n, client, server, err := TwoHosts(1, netdev.EthernetModel(), spinSpec("a"), spinSpec("b"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = server.ListenTCP(80, TCPAppOptions{
		OnRecv:    func(task *sim.Task, conn *TCPApp, data []byte) { _ = conn.Send(task, data) },
		OnPeerFin: func(task *sim.Task, conn *TCPApp) { conn.Close(task) },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	client.Spawn("client", func(task *sim.Task) {
		_, _ = client.ConnectTCP(task, server.Addr(), 80, TCPAppOptions{
			OnEstablished: func(t2 *sim.Task, conn *TCPApp) {
				_ = conn.Send(t2, make([]byte, 5000))
				conn.Close(t2)
			},
		})
	})
	n.Sim.RunUntil(5 * 60 * sim.Second) // past TIME-WAIT
	for _, st := range []*Stack{client, server} {
		if inuse := st.Host.Pool.Stats().InUse; inuse != 0 {
			t.Errorf("%s: %d mbufs leaked across TCP lifecycle", st.Name(), inuse)
		}
	}
}

// Crossing connects: both hosts dial each other's listening port at the same
// instant; both connections must establish and accept, with no RSTs.
func TestTCPCrossingConnects(t *testing.T) {
	n, a, b, err := TwoHosts(1, netdev.EthernetModel(), spinSpec("a"), spinSpec("b"))
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	if _, err := a.ListenTCP(1000, TCPAppOptions{}, func(task *sim.Task, conn *TCPApp) { accepted++ }); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ListenTCP(1000, TCPAppOptions{}, func(task *sim.Task, conn *TCPApp) { accepted++ }); err != nil {
		t.Fatal(err)
	}
	okA, okB := false, false
	a.Spawn("dialB", func(task *sim.Task) {
		_, _ = a.ConnectTCP(task, b.Addr(), 1000, TCPAppOptions{
			OnEstablished: func(*sim.Task, *TCPApp) { okA = true },
		})
	})
	b.Spawn("dialA", func(task *sim.Task) {
		_, _ = b.ConnectTCP(task, a.Addr(), 1000, TCPAppOptions{
			OnEstablished: func(*sim.Task, *TCPApp) { okB = true },
		})
	})
	n.Sim.RunUntil(30 * sim.Second)
	if !okA || !okB {
		t.Fatalf("crossing connects failed: a=%v b=%v", okA, okB)
	}
	if accepted != 2 {
		t.Fatalf("accepted = %d, want 2", accepted)
	}
	if a.TCP.Stats().RSTsSent != 0 || b.TCP.Stats().RSTsSent != 0 {
		t.Error("RSTs emitted during crossing connects")
	}
}

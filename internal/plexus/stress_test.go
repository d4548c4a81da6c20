package plexus

import (
	"bytes"
	"fmt"
	"testing"

	"plexus/internal/fault"
	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// The two personalities interoperate on the wire: a SPIN client against a
// monolithic server and vice versa (the paper's measurements pair like with
// like, but the protocols are identical, so mixed pairs must work).
func TestCrossPersonalityInterop(t *testing.T) {
	combos := []struct {
		name   string
		client osmodel.Personality
		server osmodel.Personality
	}{
		{"spin->dux", osmodel.SPIN, osmodel.Monolithic},
		{"dux->spin", osmodel.Monolithic, osmodel.SPIN},
	}
	for _, combo := range combos {
		t.Run(combo.name, func(t *testing.T) {
			n, client, server, err := TwoHosts(1, netdev.EthernetModel(),
				HostSpec{Name: "client", Personality: combo.client},
				HostSpec{Name: "server", Personality: combo.server})
			if err != nil {
				t.Fatal(err)
			}
			// UDP echo.
			var echo *UDPApp
			echo, err = server.OpenUDP(UDPAppOptions{Port: 7}, func(task *sim.Task, data []byte, src view.IP4, srcPort uint16) {
				_ = echo.Send(task, src, srcPort, data)
			})
			if err != nil {
				t.Fatal(err)
			}
			var udpGot []byte
			capp, err := client.OpenUDP(UDPAppOptions{}, func(task *sim.Task, data []byte, src view.IP4, srcPort uint16) {
				udpGot = append([]byte(nil), data...) // valid only during the call
			})
			if err != nil {
				t.Fatal(err)
			}
			// TCP echo.
			_, err = server.ListenTCP(80, TCPAppOptions{
				OnRecv:    func(task *sim.Task, conn *TCPApp, data []byte) { _ = conn.Send(task, data) },
				OnPeerFin: func(task *sim.Task, conn *TCPApp) { conn.Close(task) },
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			var tcpGot bytes.Buffer
			client.Spawn("apps", func(task *sim.Task) {
				_ = capp.Send(task, server.Addr(), 7, []byte("udp-x"))
				_, _ = client.ConnectTCP(task, server.Addr(), 80, TCPAppOptions{
					OnEstablished: func(t2 *sim.Task, conn *TCPApp) {
						_ = conn.Send(t2, []byte("tcp-x"))
					},
					OnRecv: func(t2 *sim.Task, conn *TCPApp, data []byte) {
						tcpGot.Write(data)
						conn.Close(t2)
					},
				})
			})
			n.Sim.RunUntil(5 * 60 * sim.Second)
			if string(udpGot) != "udp-x" {
				t.Errorf("UDP echo = %q", udpGot)
			}
			if tcpGot.String() != "tcp-x" {
				t.Errorf("TCP echo = %q", tcpGot.String())
			}
		})
	}
}

// Ten clients hammer one server concurrently over TCP; every stream arrives
// intact, and nothing leaks.
func TestManyClientsOneServer(t *testing.T) {
	const clients = 10
	specs := []HostSpec{{Name: "server", Personality: osmodel.SPIN}}
	for i := 0; i < clients; i++ {
		specs = append(specs, HostSpec{Name: fmt.Sprintf("c%d", i), Personality: osmodel.SPIN})
	}
	n, err := NewNetwork(1, netdev.ForeATMModel(), specs)
	if err != nil {
		t.Fatal(err)
	}
	n.PrimeARP()
	server := n.Hosts[0]

	received := map[string]*bytes.Buffer{}
	_, err = server.ListenTCP(80, TCPAppOptions{
		OnRecv: func(task *sim.Task, conn *TCPApp, data []byte) {
			addr, port := conn.Conn().RemoteAddr()
			key := fmt.Sprintf("%v:%d", addr, port)
			if received[key] == nil {
				received[key] = &bytes.Buffer{}
			}
			received[key].Write(data)
		},
		OnPeerFin: func(task *sim.Task, conn *TCPApp) { conn.Close(task) },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	const perClient = 50 << 10
	want := map[string][]byte{}
	for i := 0; i < clients; i++ {
		i := i
		cl := n.Hosts[i+1]
		msg := make([]byte, perClient)
		for j := range msg {
			msg[j] = byte(i*31 + j*7)
		}
		// Stagger starts slightly so handshakes interleave.
		cl.SpawnAt(sim.Time(i)*3*sim.Millisecond, "client", func(task *sim.Task) {
			conn, err := cl.ConnectTCP(task, server.Addr(), 80, TCPAppOptions{
				OnEstablished: func(t2 *sim.Task, conn *TCPApp) {
					_ = conn.Send(t2, msg)
					conn.Close(t2)
				},
			})
			if err != nil {
				t.Errorf("client %d connect: %v", i, err)
				return
			}
			addr, _ := conn.Conn().RemoteAddr()
			_ = addr
			want[fmt.Sprintf("%v:%d", cl.Addr(), conn.Conn().LocalPort())] = msg
		})
	}
	n.Sim.RunUntil(10 * 60 * sim.Second)
	if len(received) != clients {
		t.Fatalf("server saw %d connections, want %d", len(received), clients)
	}
	for key, msg := range want {
		got, ok := received[key]
		if !ok {
			t.Errorf("stream %s missing", key)
			continue
		}
		if !bytes.Equal(got.Bytes(), msg) {
			t.Errorf("stream %s corrupted: %d/%d bytes", key, got.Len(), len(msg))
		}
	}
	for _, h := range n.Hosts {
		if inuse := h.Host.Pool.Stats().InUse; inuse != 0 {
			t.Errorf("%s leaked %d mbufs", h.Name(), inuse)
		}
	}
}

// Determinism: the same seed produces bit-identical outcomes — the property
// every calibrated number in EXPERIMENTS.md rests on.
func TestSimulationDeterminism(t *testing.T) {
	run := func() (sim.Time, uint64, uint64) {
		n, client, server, err := TwoHosts(99, netdev.EthernetModel(), spinSpec("a"), duxSpec("b"))
		if err != nil {
			t.Fatal(err)
		}
		fault.Attach(n.Sim, n.Link).Lose(&fault.EveryNth{N: 9})
		var rcvd int
		var last sim.Time
		_, err = server.ListenTCP(80, TCPAppOptions{
			OnRecv: func(task *sim.Task, conn *TCPApp, data []byte) {
				rcvd += len(data)
				last = task.Now()
			},
			OnPeerFin: func(task *sim.Task, conn *TCPApp) { conn.Close(task) },
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		client.Spawn("client", func(task *sim.Task) {
			_, _ = client.ConnectTCP(task, server.Addr(), 80, TCPAppOptions{
				OnEstablished: func(t2 *sim.Task, conn *TCPApp) {
					_ = conn.Send(t2, make([]byte, 100<<10))
					conn.Close(t2)
				},
			})
		})
		n.Sim.RunUntil(5 * 60 * sim.Second)
		return last, uint64(rcvd), n.Sim.Executed()
	}
	t1, r1, e1 := run()
	t2, r2, e2 := run()
	if t1 != t2 || r1 != r2 || e1 != e2 {
		t.Fatalf("nondeterminism: (%v,%d,%d) vs (%v,%d,%d)", t1, r1, e1, t2, r2, e2)
	}
	if r1 != 100<<10 {
		t.Fatalf("transfer incomplete: %d", r1)
	}
}

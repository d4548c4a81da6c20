package forward

import (
	"bytes"
	"testing"

	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// threeHosts builds client, forwarder, server on one Ethernet. The forwarder
// personality is the experiment variable.
func threeHosts(t *testing.T, fwdPersonality osmodel.Personality) (*plexus.Network, *plexus.Stack, *plexus.Stack, *plexus.Stack) {
	t.Helper()
	spec := func(name string, p osmodel.Personality) plexus.HostSpec {
		return plexus.HostSpec{Name: name, Personality: p, Dispatch: osmodel.DispatchInterrupt}
	}
	n, err := plexus.NewNetwork(1, netdev.EthernetModel(), []plexus.HostSpec{
		spec("client", osmodel.SPIN),
		spec("fwd", fwdPersonality),
		spec("server", osmodel.SPIN),
	})
	if err != nil {
		t.Fatal(err)
	}
	n.PrimeARP()
	return n, n.Hosts[0], n.Hosts[1], n.Hosts[2]
}

// echoServer installs a TCP upper-caser on the server.
func echoServer(t *testing.T, server *plexus.Stack, port uint16) {
	t.Helper()
	_, err := server.ListenTCP(port, plexus.TCPAppOptions{
		OnRecv: func(task *sim.Task, conn *plexus.TCPApp, data []byte) {
			_ = conn.Send(task, bytes.ToUpper(data))
		},
		OnPeerFin: func(task *sim.Task, conn *plexus.TCPApp) { conn.Close(task) },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// runRequest opens a TCP connection from client to target:port, sends req,
// and returns the reply and the request→reply latency.
func runRequest(t *testing.T, n *plexus.Network, client *plexus.Stack, target view.IP4, port uint16, req []byte) ([]byte, sim.Time) {
	t.Helper()
	var reply bytes.Buffer
	var sentAt, gotAt sim.Time
	client.Spawn("client", func(task *sim.Task) {
		_, err := client.ConnectTCP(task, target, port, plexus.TCPAppOptions{
			OnEstablished: func(t2 *sim.Task, conn *plexus.TCPApp) {
				sentAt = t2.Now()
				_ = conn.Send(t2, req)
			},
			OnRecv: func(t2 *sim.Task, conn *plexus.TCPApp, data []byte) {
				reply.Write(data)
				if reply.Len() >= len(req) {
					gotAt = t2.Now()
					conn.Close(t2)
				}
			},
		})
		if err != nil {
			t.Errorf("connect: %v", err)
		}
	})
	n.Sim.RunUntil(5 * 60 * sim.Second)
	if gotAt == 0 {
		t.Fatal("no reply through forwarder")
	}
	return reply.Bytes(), gotAt - sentAt
}

func TestKernelForwarderTCPEndToEnd(t *testing.T) {
	n, client, fwd, server := threeHosts(t, osmodel.SPIN)
	echoServer(t, server, 9000)
	k, err := NewKernel(fwd, view.IPProtoTCP, 8000, server.Addr(), 9000)
	if err != nil {
		t.Fatal(err)
	}
	req := []byte("forward me please")
	reply, latency := runRequest(t, n, client, fwd.Addr(), 8000, req)
	if string(reply) != "FORWARD ME PLEASE" {
		t.Fatalf("reply = %q", reply)
	}
	t.Logf("kernel-forwarded request/reply latency = %v", latency)
	st := k.Stats()
	if st.FlowsCreated != 1 {
		t.Errorf("FlowsCreated = %d", st.FlowsCreated)
	}
	// SYN, data, ACKs, FINs all pass through: both directions nonzero and
	// more than just the data packet.
	if st.Forwarded < 3 || st.Returned < 3 {
		t.Errorf("control packets not forwarded: %+v", st)
	}
	// End-to-end semantics: the server saw the connection terminate with a
	// proper FIN exchange; no RSTs anywhere.
	if server.TCP.Stats().RSTsSent != 0 || client.TCP.Stats().RSTsSent != 0 {
		t.Error("RSTs emitted through in-kernel forwarding")
	}
	// The forwarder host's own TCP never saw the connection.
	if fwd.TCP.Stats().SegsIn != 0 {
		t.Errorf("forwarder's local TCP processed %d segments; claim failed", fwd.TCP.Stats().SegsIn)
	}
}

func TestSpliceForwarderTCPEndToEnd(t *testing.T) {
	n, client, fwd, server := threeHosts(t, osmodel.Monolithic)
	echoServer(t, server, 9000)
	sp, err := NewSplice(fwd, 8000, server.Addr(), 9000)
	if err != nil {
		t.Fatal(err)
	}
	req := []byte("forward me please")
	reply, latency := runRequest(t, n, client, fwd.Addr(), 8000, req)
	if string(reply) != "FORWARD ME PLEASE" {
		t.Fatalf("reply = %q", reply)
	}
	t.Logf("user-level-spliced request/reply latency = %v", latency)
	st := sp.Stats()
	if st.Accepted != 1 || st.BytesToServer != uint64(len(req)) || st.BytesToClient != uint64(len(req)) {
		t.Errorf("splice stats wrong: %+v", st)
	}
}

// Figure 7's point: the in-kernel forwarder adds far less latency than the
// user-level splice.
func TestKernelForwarderFasterThanSplice(t *testing.T) {
	run := func(kernel bool) sim.Time {
		personality := osmodel.Monolithic
		if kernel {
			personality = osmodel.SPIN
		}
		n, client, fwd, server := threeHosts(t, personality)
		echoServer(t, server, 9000)
		if kernel {
			if _, err := NewKernel(fwd, view.IPProtoTCP, 8000, server.Addr(), 9000); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := NewSplice(fwd, 8000, server.Addr(), 9000); err != nil {
				t.Fatal(err)
			}
		}
		_, lat := runRequest(t, n, client, fwd.Addr(), 8000, make([]byte, 512))
		return lat
	}
	kernelLat := run(true)
	spliceLat := run(false)
	t.Logf("kernel=%v splice=%v ratio=%.2f", kernelLat, spliceLat, float64(spliceLat)/float64(kernelLat))
	if spliceLat <= kernelLat {
		t.Errorf("splice (%v) should be slower than kernel forwarding (%v)", spliceLat, kernelLat)
	}
}

func TestKernelForwarderUDP(t *testing.T) {
	n, client, fwd, server := threeHosts(t, osmodel.SPIN)
	var echo *plexus.UDPApp
	echo, err := server.OpenUDP(plexus.UDPAppOptions{Port: 9000}, func(task *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		_ = echo.Send(task, src, srcPort, bytes.ToUpper(data))
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewKernel(fwd, view.IPProtoUDP, 8000, server.Addr(), 9000); err != nil {
		t.Fatal(err)
	}
	var reply []byte
	capp, err := client.OpenUDP(plexus.UDPAppOptions{}, func(task *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		reply = data
	})
	if err != nil {
		t.Fatal(err)
	}
	client.Spawn("client", func(task *sim.Task) {
		_ = capp.Send(task, fwd.Addr(), 8000, []byte("udp hop"))
	})
	n.Sim.Run()
	if string(reply) != "UDP HOP" {
		t.Fatalf("reply = %q", reply)
	}
}

// The forwarder takes its service port's segments only: the forwarder host's
// own connection to a remote host's service port completes, its SYN-ACK
// coming from that port to an ephemeral one.
func TestKernelForwarderHostConnectsToServicePort(t *testing.T) {
	n, _, fwd, server := threeHosts(t, osmodel.SPIN)
	echoServer(t, server, 8000)
	k, err := NewKernel(fwd, view.IPProtoTCP, 8000, server.Addr(), 9000)
	if err != nil {
		t.Fatal(err)
	}
	reply, _ := runRequest(t, n, fwd, server.Addr(), 8000, []byte("direct"))
	if string(reply) != "DIRECT" {
		t.Fatalf("reply = %q", reply)
	}
	if st := k.Stats(); st.Forwarded != 0 || st.Returned != 0 {
		t.Errorf("the forwarder handled the host's own connection: %+v", st)
	}
}

// A NAT port takes datagrams from anyone, and the forwarder returns only the
// backend's to the client: one from another host is dropped, and neither it
// nor the host's UDP sees it.
func TestKernelForwarderDropsNATPortStranger(t *testing.T) {
	n, client, fwd, server := threeHosts(t, osmodel.SPIN)
	var echo *plexus.UDPApp
	echo, err := server.OpenUDP(plexus.UDPAppOptions{Port: 9000}, func(task *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		_ = echo.Send(task, src, srcPort, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKernel(fwd, view.IPProtoUDP, 8000, server.Addr(), 9000)
	if err != nil {
		t.Fatal(err)
	}
	replies := 0
	capp, err := client.OpenUDP(plexus.UDPAppOptions{}, func(*sim.Task, []byte, view.IP4, uint16) { replies++ })
	if err != nil {
		t.Fatal(err)
	}
	client.Spawn("via", func(task *sim.Task) { _ = capp.Send(task, fwd.Addr(), 8000, []byte("hop")) })
	n.Sim.Run()
	if replies != 1 || k.Stats().Returned != 1 {
		t.Fatalf("%d replies, %+v: the forwarded exchange failed", replies, k.Stats())
	}
	received := fwd.UDP.Stats().Received
	client.Spawn("stranger", func(task *sim.Task) { _ = capp.Send(task, fwd.Addr(), natBase, []byte("spoof")) })
	n.Sim.Run()
	if replies != 1 || k.Stats().Returned != 1 {
		t.Errorf("a stranger's datagram to the NAT port was returned: %d replies, %+v", replies, k.Stats())
	}
	if fwd.UDP.Stats().Received != received || fwd.ICMP.Stats().UnreachSent != 0 {
		t.Errorf("the host's UDP saw the NAT port's datagram: %+v", fwd.UDP.Stats())
	}
}

// A port held by a forwarder, or by a listener, is in use: NewKernel fails
// on it.
func TestNewKernelRefusesHeldPort(t *testing.T) {
	_, _, fwd, server := threeHosts(t, osmodel.SPIN)
	if _, err := NewKernel(fwd, view.IPProtoTCP, 8000, server.Addr(), 9000); err != nil {
		t.Fatal(err)
	}
	if _, err := NewKernel(fwd, view.IPProtoTCP, 8000, server.Addr(), 9001); err == nil {
		t.Fatal("a second forwarder took the held port 8000")
	}
	if _, err := fwd.ListenTCP(8000, plexus.TCPAppOptions{}, nil); err == nil {
		t.Fatal("a listener took the forwarder's port 8000")
	}
	echoServer(t, fwd, 7000)
	if _, err := NewKernel(fwd, view.IPProtoTCP, 7000, server.Addr(), 9000); err == nil {
		t.Fatal("a forwarder took the listener's port 7000")
	}
	if _, err := NewKernel(fwd, view.IPProtoUDP, 8000, server.Addr(), 9000); err != nil {
		t.Fatalf("UDP 8000 is free: %v", err)
	}
}

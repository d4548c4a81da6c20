package tcp_test

import (
	"testing"

	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/tcp"
)

// BenchmarkSegAck is the established data path end to end, per segment: one
// full-size segment written, transmitted, received and delivered, and its
// (delayed) ACK sent back and processed — two in-kernel hosts on one Ethernet.
func BenchmarkSegAck(b *testing.B) {
	spec := func(name string) plexus.HostSpec {
		return plexus.HostSpec{Name: name, Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt}
	}
	n, client, server, err := plexus.TwoHosts(1, netdev.EthernetModel(), spec("client"), spec("server"))
	if err != nil {
		b.Fatal(err)
	}
	got := 0
	if _, err := server.ListenTCP(5001, plexus.TCPAppOptions{
		OnRecv: func(t *sim.Task, conn *plexus.TCPApp, data []byte) { got += len(data) },
	}, nil); err != nil {
		b.Fatal(err)
	}
	var app *plexus.TCPApp
	client.Spawn("dial", func(t *sim.Task) {
		app, err = client.ConnectTCP(t, server.Addr(), 5001, plexus.TCPAppOptions{})
	})
	n.Sim.RunUntil(10 * sim.Millisecond)
	if err != nil || app == nil || app.State() != tcp.StateEstablished {
		b.Fatalf("handshake incomplete: %v", err)
	}
	msg := make([]byte, client.TCP.MSS())
	write := func(t *sim.Task) { _ = app.Send(t, msg) }
	sent := 0
	segAck := func() {
		sent += len(msg)
		client.Spawn("write", write)
		for got < sent || app.Conn().SendBufBytes() > 0 {
			if !n.Sim.Step() {
				b.Fatal("simulation drained before the segment was acknowledged")
			}
		}
	}
	for i := 0; i < 64; i++ {
		segAck()
	}
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		segAck()
	}
}

package plexus

import (
	"bytes"
	"testing"

	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/sim"
	"plexus/internal/telemetry"
	"plexus/internal/view"
)

// TestUDPEchoSteadyStateAllocsWithTelemetry is the alloc_test.go pin with the
// telemetry plane live: sampling the link, both pools, both TCP managers, and
// the event queue on a 10µs interval (dozens of ticks per pinned round) must
// add zero allocations to the steady-state UDP echo round.
func TestUDPEchoSteadyStateAllocsWithTelemetry(t *testing.T) {
	spec := func(name string) HostSpec {
		return HostSpec{Name: name, Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt}
	}
	n, client, server, err := TwoHosts(1, netdev.EthernetModel(), spec("client"), spec("server"))
	if err != nil {
		t.Fatal(err)
	}
	eng := n.Monitor(MonitorOptions{
		Telemetry:      telemetry.Options{Interval: 10 * sim.Microsecond},
		TCPStallWindow: sim.Second,
	})

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
	// Warm up: free lists plus enough ticks to wrap every series episode.
	runRounds(64)
	warmTicks := eng.Ticks()
	if warmTicks == 0 {
		t.Fatal("telemetry never ticked during warmup")
	}

	avg := testing.AllocsPerRun(100, func() { runRounds(1) })
	if avg != 0 {
		t.Fatalf("steady-state UDP echo round with telemetry allocates %.2f/iter, want 0", avg)
	}
	if eng.Ticks() == warmTicks {
		t.Fatal("no telemetry ticks fired inside the pinned window — the pin proved nothing")
	}
	if eng.AlarmTotal() != 0 {
		t.Fatalf("clean path raised %d watchdog alarms: %+v", eng.AlarmTotal(), eng.Alarms())
	}
}

// monitoredBulkDump runs one fixed TCP bulk transfer under a Monitor and
// returns the telemetry JSONL plus digest.
func monitoredBulkDump(t *testing.T) ([]byte, uint64) {
	t.Helper()
	spec := func(name string) HostSpec {
		return HostSpec{Name: name, Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt}
	}
	n, client, server, err := TwoHosts(3, netdev.EthernetModel(), spec("a"), spec("b"))
	if err != nil {
		t.Fatal(err)
	}
	eng := n.Monitor(MonitorOptions{
		Telemetry:      telemetry.Options{Interval: sim.Millisecond},
		TCPStallWindow: 5 * sim.Second,
	})
	got := 0
	_, err = server.ListenTCP(5001, TCPAppOptions{
		OnRecv:    func(tk *sim.Task, conn *TCPApp, data []byte) { got += len(data) },
		OnPeerFin: func(tk *sim.Task, conn *TCPApp) { conn.Close(tk) },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 64<<10)
	client.Spawn("sender", func(tk *sim.Task) {
		_, _ = client.ConnectTCP(tk, server.Addr(), 5001, TCPAppOptions{
			OnEstablished: func(tk2 *sim.Task, conn *TCPApp) {
				_ = conn.Send(tk2, msg)
				conn.Close(tk2)
			},
		})
	})
	n.Sim.RunUntil(10 * sim.Second)
	if got != len(msg) {
		t.Fatalf("bulk transfer delivered %d of %d bytes", got, len(msg))
	}
	if eng.AlarmTotal() != 0 {
		t.Fatalf("clean bulk transfer raised alarms: %+v", eng.Alarms())
	}
	var buf bytes.Buffer
	if err := eng.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), eng.Digest()
}

// TestMonitorBulkTransferDeterministic: two identical monitored runs produce
// byte-identical telemetry, and the per-connection TCP series carry real data.
func TestMonitorBulkTransferDeterministic(t *testing.T) {
	b1, d1 := monitoredBulkDump(t)
	b2, d2 := monitoredBulkDump(t)
	if !bytes.Equal(b1, b2) || d1 != d2 {
		t.Fatalf("telemetry dumps differ across identical runs (digest %x vs %x)", d1, d2)
	}
	pts, err := telemetry.ReadJSONL(bytes.NewReader(b1))
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]bool{}
	var sawCwnd, sawAcked bool
	for _, p := range pts {
		series[p.Series] = true
		if p.Series == "tcp.cwnd" && p.V > 0 {
			sawCwnd = true
		}
		if p.Series == "tcp.acked_bytes" && p.V >= 64<<10 {
			sawAcked = true
		}
	}
	for _, want := range []string{"link.tx_bytes", "mbuf.in_use", "sim.queue_depth", "tcp.cwnd", "tcp.acked_bytes", "tcp.srtt_ns"} {
		if !series[want] {
			t.Fatalf("series %q missing from dump (have %v)", want, series)
		}
	}
	if !sawCwnd || !sawAcked {
		t.Fatalf("TCP series carried no data: cwnd=%v acked=%v", sawCwnd, sawAcked)
	}
}

// TestShardedMonitorDeterministicAcrossWorkers: per-shard sampling engines
// produce identical series content (witnessed by the merged digest and the
// per-engine dumps) at any worker count.
func TestShardedMonitorDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) ([][]byte, uint64) {
		top, client, server := shardedPair(t, 1)
		engines := top.Monitor(MonitorOptions{
			Telemetry:       telemetry.Options{Interval: sim.Millisecond},
			SwitchPinWindow: 100 * sim.Millisecond,
		})
		var echo *UDPApp
		echo, err := server.OpenUDP(UDPAppOptions{Port: 7}, func(tk *sim.Task, data []byte, src view.IP4, srcPort uint16) {
			_ = echo.Send(tk, src, srcPort, data)
		})
		if err != nil {
			t.Fatal(err)
		}
		msg := make([]byte, 32)
		var capp *UDPApp
		capp, err = client.OpenUDP(UDPAppOptions{}, func(tk *sim.Task, data []byte, src view.IP4, srcPort uint16) {
			_ = capp.Send(tk, server.Addr(), 7, msg)
		})
		if err != nil {
			t.Fatal(err)
		}
		client.Spawn("kick", func(tk *sim.Task) { _ = capp.Send(tk, server.Addr(), 7, msg) })
		top.Run(50*sim.Millisecond, workers)

		dumps := make([][]byte, len(engines))
		for i, e := range engines {
			var buf bytes.Buffer
			if err := e.WriteJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			dumps[i] = buf.Bytes()
			if e.Ticks() == 0 {
				t.Fatalf("engine %d never ticked", i)
			}
		}
		return dumps, MergedDigest(engines)
	}
	baseDumps, baseDigest := run(1)
	for _, workers := range []int{2, 4} {
		dumps, digest := run(workers)
		if digest != baseDigest {
			t.Fatalf("workers=%d digest %x, want %x", workers, digest, baseDigest)
		}
		for i := range dumps {
			if !bytes.Equal(dumps[i], baseDumps[i]) {
				t.Fatalf("workers=%d shard %d dump differs", workers, i)
			}
		}
	}
}

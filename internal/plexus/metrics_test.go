package plexus

import (
	"testing"

	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/sim"
	"plexus/internal/stats"
	"plexus/internal/view"
)

// runEchoWithRecorder runs k UDP echo rounds between two SPIN hosts with the
// flight recorder attached, returning the recorder for inspection.
func runEchoWithRecorder(t *testing.T, rounds int) *stats.Recorder {
	t.Helper()
	spec := func(name string) HostSpec {
		return HostSpec{Name: name, Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt}
	}
	n, client, server, err := TwoHosts(1, netdev.EthernetModel(), spec("client"), spec("server"))
	if err != nil {
		t.Fatal(err)
	}
	rec := stats.NewRecorder()
	n.Sim.SetMetrics(rec)
	var echo *UDPApp
	echo, err = server.OpenUDP(UDPAppOptions{Port: 7}, func(tk *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		_ = echo.Send(tk, src, srcPort, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 8)
	done := 0
	var capp *UDPApp
	capp, err = client.OpenUDP(UDPAppOptions{}, func(tk *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		done++
		if done < rounds {
			_ = capp.Send(tk, server.Addr(), 7, msg)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	client.Spawn("kick", func(tk *sim.Task) { _ = capp.Send(tk, server.Addr(), 7, msg) })
	n.Sim.RunUntil(60 * sim.Second)
	if done != rounds {
		t.Fatalf("completed %d echo rounds, want %d", done, rounds)
	}
	return rec
}

// TestSpanItinerary checks the tentpole observability claim end to end: a
// packet stamped at the sending socket carries its span across the wire, so
// one span's hop list shows both hosts and every traversed layer in time
// order.
func TestSpanItinerary(t *testing.T) {
	rec := runEchoWithRecorder(t, 3)
	spans := rec.Spans()
	if len(spans) == 0 {
		t.Fatal("no packet spans recorded")
	}
	// The first span is the client's first request: client udp→ip→ether→wire,
	// then server wire→...→udp.
	hops := rec.SpanHops(spans[0])
	if len(hops) < 4 {
		t.Fatalf("span %d has only %d hops: %+v", spans[0], len(hops), hops)
	}
	hosts := make(map[string]bool)
	layers := make(map[string]bool)
	prev := hops[0].At
	for _, h := range hops {
		if h.At < prev {
			t.Fatalf("hops out of time order: %+v", hops)
		}
		prev = h.At
		hosts[h.Host] = true
		layers[h.Layer] = true
	}
	if !hosts["client"] || !hosts["server"] {
		t.Fatalf("span should cross both hosts, saw %v", hosts)
	}
	if len(layers) < 3 {
		t.Fatalf("span should traverse at least 3 layers, saw %v", layers)
	}
	if !layers["udp"] {
		t.Fatalf("span should include the udp layer, saw %v", layers)
	}
	if first := hops[0]; first.Host != "client" || first.Layer != "udp" || first.Action != "send" {
		t.Fatalf("span should start at the client socket, got %+v", first)
	}
}

// TestMetricsProfileAttribution checks that CPU charges landed under both
// hosts across several profile kinds with protocol owners attributed.
func TestMetricsProfileAttribution(t *testing.T) {
	rec := runEchoWithRecorder(t, 8)
	if rec.SamplesRecorded() == 0 {
		t.Fatal("no CPU samples recorded")
	}
	hosts := make(map[string]bool)
	kinds := make(map[sim.ProfKind]bool)
	owners := make(map[string]bool)
	for _, row := range rec.Profile() {
		hosts[row.Host] = true
		kinds[row.Kind] = true
		owners[row.Owner] = true
		if row.Total <= 0 || row.Count == 0 {
			t.Fatalf("empty profile row: %+v", row)
		}
	}
	if !hosts["client"] || !hosts["server"] {
		t.Fatalf("profile should cover both hosts, saw %v", hosts)
	}
	// No ProfCopy here: SPIN handlers run in-kernel (no user copies) and the
	// Ethernet model DMAs, so no per-byte PIO charge exists to attribute.
	for _, k := range []sim.ProfKind{sim.ProfProto, sim.ProfDriver, sim.ProfDispatch, sim.ProfHandler} {
		if !kinds[k] {
			t.Fatalf("profile missing kind %v; have %v", k, kinds)
		}
	}
	for _, o := range []string{"ip", "udp", "ether"} {
		if !owners[o] {
			t.Fatalf("profile missing owner %q; have %v", o, owners)
		}
	}
	if rec.Folded() == "" {
		t.Fatal("folded profile is empty")
	}
}

// TestUDPEchoSteadyStateAllocsWithMetrics is the metrics-enabled twin of
// TestUDPEchoSteadyStateAllocs: with the flight recorder attached the
// steady-state per-round allocation count must still be zero — spans, hops
// and samples all live in preallocated storage.
func TestUDPEchoSteadyStateAllocsWithMetrics(t *testing.T) {
	spec := func(name string) HostSpec {
		return HostSpec{Name: name, Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt}
	}
	n, client, server, err := TwoHosts(1, netdev.EthernetModel(), spec("client"), spec("server"))
	if err != nil {
		t.Fatal(err)
	}
	rec := stats.NewRecorder()
	n.Sim.SetMetrics(rec)
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
	// Warm up: prime the free lists AND the recorder's aggregation keys
	// (every host/kind/owner triple the echo path touches).
	runRounds(64)

	avg := testing.AllocsPerRun(100, func() { runRounds(1) })
	if avg != 0 {
		t.Fatalf("metrics-enabled UDP echo round allocates %.2f/iter, want 0", avg)
	}
	if rec.HopsRecorded() == 0 || rec.SamplesRecorded() == 0 {
		t.Fatalf("recorder idle during alloc run: hops=%d samples=%d",
			rec.HopsRecorded(), rec.SamplesRecorded())
	}
}

// TestTCPAppBoundaryCostsProfiled checks that each boundary's TCP cost split
// reaches the profile: DIGITAL UNIX's user/kernel boundary — syscalls, socket
// layer, wakeups, context switches and the copies — as ProfTrap and ProfCopy,
// the split the paper's comparison rests on; Plexus's in-kernel application
// pays no app-path copy at all, and its thread mode pays a ProfDispatch
// thread spawn per raise instead.
func TestTCPAppBoundaryCostsProfiled(t *testing.T) {
	const size = 16 << 10
	threadSpec := func(name string) HostSpec {
		return HostSpec{Name: name, Personality: osmodel.SPIN, Dispatch: osmodel.DispatchThread}
	}
	for _, spec := range []func(string) HostSpec{duxSpec, spinSpec, threadSpec} {
		n, client, server, err := TwoHosts(1, netdev.EthernetModel(), spec("client"), spec("server"))
		if err != nil {
			t.Fatal(err)
		}
		rec := stats.NewRecorder()
		n.Sim.SetMetrics(rec)
		got := 0
		if _, err := server.ListenTCP(80, TCPAppOptions{
			OnRecv:    func(_ *sim.Task, _ *TCPApp, data []byte) { got += len(data) },
			OnPeerFin: func(task *sim.Task, conn *TCPApp) { conn.Close(task) },
		}, nil); err != nil {
			t.Fatal(err)
		}
		client.Spawn("client", func(task *sim.Task) {
			if _, err := client.ConnectTCP(task, server.Addr(), 80, TCPAppOptions{
				OnEstablished: func(task *sim.Task, conn *TCPApp) {
					if err := conn.Send(task, make([]byte, size)); err != nil {
						t.Error(err)
					}
					conn.Close(task)
				},
			}); err != nil {
				t.Error(err)
			}
		})
		n.Sim.RunUntil(10 * sim.Second)
		b := client.Host.Boundary
		if got != size {
			t.Fatalf("%v: delivered %d of %d bytes", b, got, size)
		}
		prof := map[sim.ProfKind]map[string]sim.Time{sim.ProfTrap: {}, sim.ProfCopy: {}, sim.ProfDispatch: {}}
		for _, row := range rec.Profile() {
			if m := prof[row.Kind]; m != nil {
				m[row.Owner] += row.Total
			}
		}
		copies, spawns := prof[sim.ProfCopy], prof[sim.ProfDispatch]["thread-spawn"]
		if b != osmodel.DigitalUnix {
			if copies["copyin"] != 0 || copies["copyout"] != 0 {
				t.Errorf("%v charged app-path copies %v", b, copies)
			}
			if (b == osmodel.PlexusThread) != (spawns > 0) {
				t.Errorf("%v charged %v of thread spawns", b, spawns)
			}
			continue
		}
		want := size * client.Host.Costs.CopyPerByte
		if copies["copyin"] != want || copies["copyout"] != want {
			t.Errorf("DUX copies copyin=%v copyout=%v, want %v each", copies["copyin"], copies["copyout"], want)
		}
		if prof[sim.ProfTrap]["syscall"] == 0 || prof[sim.ProfTrap]["socket"] == 0 {
			t.Errorf("DUX traps missing from the profile: %v", prof[sim.ProfTrap])
		}
	}
}

package plexus

// The adversarial proof of the sandbox: rogue extensions of every archetype
// installed on a live stack, with well-behaved flows required to complete
// underneath them and the quarantine required to eject each rogue within
// its fault threshold.

import (
	"testing"

	"plexus/internal/event"
	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/seqpkt"
	"plexus/internal/sim"
)

// rogueQuarantine is the policy the adversarial suite runs under.
func rogueQuarantine() event.QuarantinePolicy {
	return event.QuarantinePolicy{Threshold: 5, GuardBudget: 5 * sim.Microsecond}
}

func rogueSpec(name string, p osmodel.Personality, d osmodel.DispatchMode) HostSpec {
	return HostSpec{Name: name, Personality: p, Dispatch: d, Quarantine: rogueQuarantine()}
}

// installAllRogues installs one rogue of every archetype on the stack.
func installAllRogues(t *testing.T, st *Stack) []*Extension {
	t.Helper()
	var exts []*Extension
	for i, kind := range RogueKinds() {
		ext, err := st.InstallExtension(RogueExtension(kind, i))
		if err != nil {
			t.Fatalf("install rogue %s: %v", kind, err)
		}
		exts = append(exts, ext)
	}
	return exts
}

// checkQuarantined asserts every rogue was ejected with exactly threshold
// faults.
func checkQuarantined(t *testing.T, exts []*Extension) {
	t.Helper()
	threshold := rogueQuarantine().Threshold
	for _, ext := range exts {
		st := ext.Stats()
		if st.Quarantined != st.Bindings {
			t.Errorf("%s: %d/%d bindings quarantined", ext.name, st.Quarantined, st.Bindings)
		}
		if st.Faults != threshold {
			t.Errorf("%s: %d faults, want exactly the threshold %d", ext.name, st.Faults, threshold)
		}
	}
}

func rogueTCPBulk(t *testing.T, personality osmodel.Personality, dispatch osmodel.DispatchMode) {
	t.Helper()
	const size = 64 << 10
	n, client, server, err := TwoHosts(1, netdev.EthernetModel(),
		rogueSpec("client", personality, dispatch), rogueSpec("server", personality, dispatch))
	if err != nil {
		t.Fatal(err)
	}
	exts := installAllRogues(t, server)
	var got int
	_, err = server.ListenTCP(5001, TCPAppOptions{
		OnRecv:    func(task *sim.Task, conn *TCPApp, data []byte) { got += len(data) },
		OnPeerFin: func(task *sim.Task, conn *TCPApp) { conn.Close(task) },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, size)
	client.Spawn("sender", func(task *sim.Task) {
		_, _ = client.ConnectTCP(task, server.Addr(), 5001, TCPAppOptions{
			OnEstablished: func(t2 *sim.Task, conn *TCPApp) {
				_ = conn.Send(t2, msg)
				conn.Close(t2)
			},
		})
	})
	n.Sim.RunUntil(60 * sim.Second)
	if got != size {
		t.Fatalf("TCP bulk delivered %d/%d bytes with rogues installed", got, size)
	}
	checkQuarantined(t, exts)
	// Atomic unload at quiesce: every rogue accounts clean — contained
	// double-free attacks and terminations did not unbalance the pool.
	for _, ext := range exts {
		rep, err := ext.Unload()
		if err != nil {
			t.Fatal(err)
		}
		if rep.LeakedMbufs != 0 {
			t.Errorf("%s: LeakedMbufs = %d, want 0", ext.name, rep.LeakedMbufs)
		}
	}
	if inUse := server.Host.Pool.Stats().InUse; inUse != 0 {
		t.Errorf("server pool InUse = %d at quiesce, want 0", inUse)
	}
}

func TestRogueSuiteTCPBulkSPIN(t *testing.T) {
	rogueTCPBulk(t, osmodel.SPIN, osmodel.DispatchInterrupt)
}

func TestRogueSuiteTCPBulkMonolithic(t *testing.T) {
	rogueTCPBulk(t, osmodel.Monolithic, osmodel.DispatchInterrupt)
}

func TestRogueSuiteSPPStream(t *testing.T) {
	const msgs = 30
	n, client, server, err := TwoHosts(1, netdev.EthernetModel(),
		rogueSpec("client", osmodel.SPIN, osmodel.DispatchInterrupt),
		rogueSpec("server", osmodel.SPIN, osmodel.DispatchInterrupt))
	if err != nil {
		t.Fatal(err)
	}
	install := func(st *Stack) (*seqpkt.Manager, error) {
		return seqpkt.Install(seqpkt.Config{
			Sim:              st.Host.Sim,
			IP:               st.IP,
			Disp:             st.Host.Disp,
			Raise:            st.Raiser(),
			CPU:              st.Host.CPU,
			Pool:             st.Host.Pool,
			Costs:            st.Host.Costs,
			RequireEphemeral: st.InterruptMode(),
		})
	}
	mc, err := install(client)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := install(server)
	if err != nil {
		t.Fatal(err)
	}
	exts := installAllRogues(t, server)
	rx, err := ms.Open(40, nil)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := mc.Open(41, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 300)
	for i := 0; i < msgs; i++ {
		client.SpawnAt(sim.Time(i+1)*20*sim.Millisecond, "spp-sender", func(task *sim.Task) {
			_, _ = tx.Send(task, server.Addr(), 40, payload)
		})
	}
	n.Sim.RunUntil(60 * sim.Second)
	if d := rx.Stats().Delivered; d != msgs {
		t.Fatalf("SPP delivered %d/%d messages with rogues installed", d, msgs)
	}
	checkQuarantined(t, exts)
}

// Install/unload churn mid-traffic: a benign extension cycles every 10ms
// while a TCP transfer runs. The flow must complete, and the last
// generation must unload clean at quiesce.
func TestRogueChurnMidTraffic(t *testing.T) {
	const size = 64 << 10
	n, client, server, err := TwoHosts(1, netdev.EthernetModel(),
		rogueSpec("client", osmodel.SPIN, osmodel.DispatchInterrupt),
		rogueSpec("server", osmodel.SPIN, osmodel.DispatchInterrupt))
	if err != nil {
		t.Fatal(err)
	}
	var got int
	_, err = server.ListenTCP(5001, TCPAppOptions{
		OnRecv:    func(task *sim.Task, conn *TCPApp, data []byte) { got += len(data) },
		OnPeerFin: func(task *sim.Task, conn *TCPApp) { conn.Close(task) },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var hits, generations int
	var current *Extension
	var churn func()
	churn = func() {
		if current != nil {
			if _, err := current.Unload(); err != nil {
				t.Errorf("churn unload: %v", err)
			}
		}
		generations++
		ext, err := server.InstallExtension(tapSpec("churn-tap", &hits))
		if err != nil {
			t.Errorf("churn install: %v", err)
			return
		}
		current = ext
		if generations < 40 {
			n.Sim.After(10*sim.Millisecond, "churn", churn)
		}
	}
	n.Sim.After(5*sim.Millisecond, "churn", churn)
	msg := make([]byte, size)
	client.Spawn("sender", func(task *sim.Task) {
		_, _ = client.ConnectTCP(task, server.Addr(), 5001, TCPAppOptions{
			OnEstablished: func(t2 *sim.Task, conn *TCPApp) {
				_ = conn.Send(t2, msg)
				conn.Close(t2)
			},
		})
	})
	n.Sim.RunUntil(60 * sim.Second)
	if got != size {
		t.Fatalf("TCP bulk delivered %d/%d bytes under install/unload churn", got, size)
	}
	if generations != 40 || hits == 0 {
		t.Fatalf("churn ran %d generations, taps saw %d frames", generations, hits)
	}
	rep, err := current.Unload()
	if err != nil {
		t.Fatal(err)
	}
	if rep.LeakedMbufs != 0 {
		t.Fatalf("final churn unload LeakedMbufs = %d, want 0", rep.LeakedMbufs)
	}
	if inUse := server.Host.Pool.Stats().InUse; inUse != 0 {
		t.Errorf("server pool InUse = %d at quiesce, want 0", inUse)
	}
}

// The well-behaved flow must also survive a rogue install *storm*: more
// rogues than archetypes, cycling.
func TestRogueManyInstances(t *testing.T) {
	const size = 32 << 10
	n, client, server, err := TwoHosts(1, netdev.EthernetModel(),
		rogueSpec("client", osmodel.SPIN, osmodel.DispatchInterrupt),
		rogueSpec("server", osmodel.SPIN, osmodel.DispatchInterrupt))
	if err != nil {
		t.Fatal(err)
	}
	kinds := RogueKinds()
	var exts []*Extension
	for i := 0; i < 8; i++ {
		ext, err := server.InstallExtension(RogueExtension(kinds[i%len(kinds)], i))
		if err != nil {
			t.Fatal(err)
		}
		exts = append(exts, ext)
	}
	var got int
	_, err = server.ListenTCP(5001, TCPAppOptions{
		OnRecv:    func(task *sim.Task, conn *TCPApp, data []byte) { got += len(data) },
		OnPeerFin: func(task *sim.Task, conn *TCPApp) { conn.Close(task) },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, size)
	client.Spawn("sender", func(task *sim.Task) {
		_, _ = client.ConnectTCP(task, server.Addr(), 5001, TCPAppOptions{
			OnEstablished: func(t2 *sim.Task, conn *TCPApp) {
				_ = conn.Send(t2, msg)
				conn.Close(t2)
			},
		})
	})
	n.Sim.RunUntil(120 * sim.Second)
	if got != size {
		t.Fatalf("TCP bulk delivered %d/%d bytes under 8 rogues", got, size)
	}
	checkQuarantined(t, exts)
	if h := server.Host.Disp.Health(); h.Quarantined != 8 {
		t.Fatalf("dispatcher health Quarantined = %d, want 8", h.Quarantined)
	}
}

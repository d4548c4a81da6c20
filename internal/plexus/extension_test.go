package plexus

import (
	"errors"
	"fmt"
	"testing"

	"plexus/internal/domain"
	"plexus/internal/ether"
	"plexus/internal/event"
	"plexus/internal/mbuf"
	"plexus/internal/netdev"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// oneHost builds a single SPIN/interrupt host on its own network.
func oneHost(t *testing.T) (*Network, *Stack) {
	t.Helper()
	n, err := NewNetwork(1, netdev.EthernetModel(), []HostSpec{spinSpec("host")})
	if err != nil {
		t.Fatal(err)
	}
	return n, n.Hosts[0]
}

// tapSpec installs a benign EPHEMERAL tap on Ethernet.PacketRecv through
// the extension domain.
func tapSpec(name string, hits *int) ExtensionSpec {
	return ExtensionSpec{
		Name:    name,
		Imports: []domain.Symbol{"Ethernet.Layer"},
		Install: func(ctx *ExtensionCtx) error {
			v, _ := ctx.Resolve("Ethernet.Layer")
			eth := v.(*ether.Layer)
			b, err := eth.InstallRecv(nil, event.Ephemeral(name, func(task *sim.Task, m *mbuf.Mbuf) {
				if hits != nil {
					*hits++
				}
			}), 0)
			if err != nil {
				return err
			}
			ctx.Adopt(b)
			return nil
		},
	}
}

func TestInstallExtensionResolvesAndInstalls(t *testing.T) {
	_, st := oneHost(t)
	before := st.Host.Disp.HandlerCount(ether.RecvEvent)
	var hits int
	ext, err := st.InstallExtension(tapSpec("tap", &hits))
	if err != nil {
		t.Fatal(err)
	}
	if n := st.Host.Disp.HandlerCount(ether.RecvEvent); n != before+1 {
		t.Fatalf("HandlerCount = %d, want %d", n, before+1)
	}
	if ext.name != "tap" || len(ext.bindings) != 1 {
		t.Fatalf("extension handle wrong: %q, %d bindings", ext.name, len(ext.bindings))
	}
}

func TestInstallExtensionRejectsUnresolvedImport(t *testing.T) {
	_, st := oneHost(t)
	before := st.Host.Disp.HandlerCount(ether.RecvEvent)
	_, err := st.InstallExtension(ExtensionSpec{
		Name:    "needs-nic",
		Imports: []domain.Symbol{"Ethernet.Layer", "Device.NIC"}, // NIC is kernel-only
		Install: func(ctx *ExtensionCtx) error {
			t.Fatal("Install must not run when the link is rejected")
			return nil
		},
	})
	var unresolved *domain.UnresolvedError
	if !errors.As(err, &unresolved) {
		t.Fatalf("err = %v, want UnresolvedError", err)
	}
	if n := st.Host.Disp.HandlerCount(ether.RecvEvent); n != before {
		t.Fatal("rejected extension changed the graph")
	}
}

// A privileged extension links against the kernel domain, so the
// kernel-only Device.NIC resolves; its exports land in that domain, and
// Unload unlinks them.
func TestInstallPrivilegedExtensionLinksKernelDomain(t *testing.T) {
	_, st := oneHost(t)
	var nic any
	ext, err := st.InstallExtension(ExtensionSpec{
		Name:       "nic-tap",
		Imports:    []domain.Symbol{"Device.NIC"},
		Exports:    map[domain.Symbol]any{"NICTap.Frames": new(int)},
		Privileged: true,
		Install: func(ctx *ExtensionCtx) error {
			nic, _ = ctx.Resolve("Device.NIC")
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if nic != any(st.NIC) {
		t.Fatalf("Device.NIC resolved to %v, want the host's NIC", nic)
	}
	if _, ok := st.Host.KernelDomain.Resolve("NICTap.Frames"); !ok {
		t.Fatal("export missing from the kernel domain")
	}
	if _, ok := st.Host.ExtensionDomain.Resolve("NICTap.Frames"); ok {
		t.Fatal("export of a privileged extension landed in the extension domain")
	}
	if _, err := ext.Unload(); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Host.KernelDomain.Resolve("NICTap.Frames"); ok {
		t.Fatal("Unload left the export linked")
	}
}

// Atomicity: an install that fails partway must roll back every binding,
// timer, and closer it had already created.
func TestInstallExtensionRollbackOnPartialFailure(t *testing.T) {
	_, st := oneHost(t)
	before := st.Host.Disp.HandlerCount(ether.RecvEvent)
	var timerFired, closerRan bool
	boom := errors.New("resource 3 unavailable")
	_, err := st.InstallExtension(ExtensionSpec{
		Name:    "half-built",
		Imports: []domain.Symbol{"Ethernet.Layer"},
		Install: func(ctx *ExtensionCtx) error {
			v, _ := ctx.Resolve("Ethernet.Layer")
			eth := v.(*ether.Layer)
			for i := 0; i < 2; i++ {
				b, err := eth.InstallRecv(nil, event.Ephemeral(fmt.Sprintf("hb-%d", i),
					func(task *sim.Task, m *mbuf.Mbuf) {}), 0)
				if err != nil {
					return err
				}
				ctx.Adopt(b)
			}
			ctx.After(1*sim.Second, "hb-timer", func() { timerFired = true })
			ctx.OnUnload(func() { closerRan = true })
			return boom
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the install failure", err)
	}
	if n := st.Host.Disp.HandlerCount(ether.RecvEvent); n != before {
		t.Fatalf("rollback left %d bindings, want %d", n, before)
	}
	if !closerRan {
		t.Fatal("rollback did not run the registered closer")
	}
	st.Host.Sim.RunUntil(10 * sim.Second)
	if timerFired {
		t.Fatal("rollback did not stop the registered timer")
	}
}

func TestExtensionUnloadTearsEverythingDown(t *testing.T) {
	n, st := oneHost(t)
	base := st.Host.Pool.Stats().InUse
	var ticks, closerRan int
	ext, err := st.InstallExtension(ExtensionSpec{
		Name:    "full",
		Imports: []domain.Symbol{"Ethernet.Layer"},
		Exports: map[domain.Symbol]any{"Full.API": "v1"},
		Install: func(ctx *ExtensionCtx) error {
			v, _ := ctx.Resolve("Ethernet.Layer")
			eth := v.(*ether.Layer)
			b, err := eth.InstallRecv(nil, event.Ephemeral("full-tap",
				func(task *sim.Task, m *mbuf.Mbuf) {}), 0)
			if err != nil {
				return err
			}
			ctx.Adopt(b)
			ctx.Every(1*sim.Second, "full-tick", func() { ticks++ })
			ctx.After(100*sim.Second, "full-once", func() { t.Error("one-shot fired after unload") })
			ctx.OnUnload(func() { closerRan++ })
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Host.ExtensionDomain.Resolve("Full.API"); !ok {
		t.Fatal("export not published")
	}
	n.Sim.RunUntil(3500 * sim.Millisecond)
	if ticks != 3 {
		t.Fatalf("ticker fired %d times before unload, want 3", ticks)
	}
	rep, err := ext.Unload()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bindings != 1 || rep.TimersStopped != 2 || rep.ClosersRun != 1 {
		t.Fatalf("report = %+v, want 1 binding, 2 timers, 1 closer", rep)
	}
	if rep.LeakedMbufs != 0 {
		t.Fatalf("LeakedMbufs = %d, want 0", rep.LeakedMbufs)
	}
	if _, ok := st.Host.ExtensionDomain.Resolve("Full.API"); ok {
		t.Fatal("export still published after unload")
	}
	n.Sim.RunUntil(200 * sim.Second)
	if ticks != 3 {
		t.Fatalf("ticker fired after unload: %d", ticks)
	}
	if got := st.Host.Pool.Stats().InUse; got != base {
		t.Fatalf("pool InUse %d after unload, want baseline %d", got, base)
	}
	if _, err := ext.Unload(); !errors.Is(err, ErrExtensionUnloaded) {
		t.Fatalf("second unload err = %v, want ErrExtensionUnloaded", err)
	}
}

// An extension that hoards cloned frames shows up in the unload report's
// pool accounting — and a well-behaved sibling on the same traffic reports
// zero.
func TestExtensionUnloadDetectsLeakedMbufs(t *testing.T) {
	n, client, server, err := TwoHosts(1, netdev.EthernetModel(),
		spinSpec("client"), spinSpec("server"))
	if err != nil {
		t.Fatal(err)
	}
	// The hoarder grabs a pool buffer per packet it observes and never
	// frees it — pooled resources leak until unload accounts for them.
	var hoard []*mbuf.Mbuf
	hoarder, err := server.InstallExtension(ExtensionSpec{
		Name:    "hoarder",
		Imports: []domain.Symbol{"Ethernet.Layer", "Mbuf.Pool"},
		Install: func(ctx *ExtensionCtx) error {
			v, _ := ctx.Resolve("Ethernet.Layer")
			eth := v.(*ether.Layer)
			pv, _ := ctx.Resolve("Mbuf.Pool")
			pool := pv.(*mbuf.Pool)
			scratch := []byte("hoarded")
			b, err := eth.InstallRecv(nil, event.Ephemeral("hoard",
				func(task *sim.Task, m *mbuf.Mbuf) {
					hoard = append(hoard, pool.FromBytes(scratch, 0))
				}), 0)
			if err != nil {
				return err
			}
			ctx.Adopt(b)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var tapHits int
	benign, err := server.InstallExtension(tapSpec("benign", &tapHits))
	if err != nil {
		t.Fatal(err)
	}
	// UDP traffic at the server; the hoarder clones every frame it sees.
	if _, err := server.OpenUDP(UDPAppOptions{Port: 7},
		func(task *sim.Task, data []byte, src view.IP4, srcPort uint16) {}); err != nil {
		t.Fatal(err)
	}
	capp, err := client.OpenUDP(UDPAppOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		client.SpawnAt(sim.Time(i+1)*sim.Millisecond, "send", func(task *sim.Task) {
			_ = capp.Send(task, server.Addr(), 7, []byte("payload"))
		})
	}
	n.Sim.Run() // quiesce: no unrelated frames in flight
	if tapHits == 0 {
		t.Fatal("no traffic reached the extensions")
	}
	repH, err := hoarder.Unload()
	if err != nil {
		t.Fatal(err)
	}
	if repH.LeakedMbufs != int64(len(hoard)) {
		t.Fatalf("hoarder LeakedMbufs = %d, want %d (one per observed frame)", repH.LeakedMbufs, len(hoard))
	}
	// Freeing the hoard restores the pool to balance: the report's delta
	// was exactly the hoarded buffers, and the well-behaved sibling then
	// accounts clean.
	for _, c := range hoard {
		c.Free()
	}
	repB, err := benign.Unload()
	if err != nil {
		t.Fatal(err)
	}
	if repB.LeakedMbufs != 0 {
		t.Fatalf("benign extension LeakedMbufs = %d, want 0", repB.LeakedMbufs)
	}
	if got := server.Host.Pool.Stats().InUse; got != 0 {
		t.Fatalf("pool InUse = %d after freeing the hoard, want 0", got)
	}
}

package netdev

import (
	"testing"

	"plexus/internal/event"
	"plexus/internal/mbuf"
	"plexus/internal/osmodel"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// rig is a minimal two-NIC test network without any protocol stack.
type rig struct {
	sim   *sim.Sim
	link  *Link
	a, b  *NIC
	cpuA  *sim.CPU
	cpuB  *sim.CPU
	dispA *event.Dispatcher
	dispB *event.Dispatcher
	poolA *mbuf.Pool
	poolB *mbuf.Pool
	// rxB collects frames B's handler received; rxAtB their arrival times.
	rxB   [][]byte
	rxAtB []sim.Time
}

const testRecvEvent event.Name = "Test.PacketRecv"

// testHost is a SPIN interrupt-dispatch host, which raises arrivals inline
// as a bare dispatcher does, with testRecvEvent declared.
func testHost(s *sim.Sim, name string) *osmodel.Host {
	h := osmodel.NewHost(s, name, osmodel.SPIN, osmodel.DispatchInterrupt)
	h.Disp.MustDeclare(testRecvEvent, event.Options{})
	return h
}

func newRig(t *testing.T, model Model) *rig {
	t.Helper()
	s := sim.New(1)
	ha, hb := testHost(s, "a"), testHost(s, "b")
	r := &rig{
		sim:   s,
		link:  &Link{},
		cpuA:  ha.CPU,
		cpuB:  hb.CPU,
		dispA: ha.Disp,
		dispB: hb.Disp,
		poolA: ha.Pool,
		poolB: hb.Pool,
	}
	r.a = NewNIC(ha, "a/nic", model, r.link, view.MAC{2, 0, 0, 0, 0, 1})
	r.a.SetRecvRef(r.dispA.Ref(testRecvEvent))
	r.b = NewNIC(hb, "b/nic", model, r.link, view.MAC{2, 0, 0, 0, 0, 2})
	r.b.SetRecvRef(r.dispB.Ref(testRecvEvent))
	if _, err := r.dispB.Install(testRecvEvent, nil, event.Proc("sink", func(task *sim.Task, m *mbuf.Mbuf) {
		data, _ := m.CopyData(0, m.PktLen())
		r.rxB = append(r.rxB, data)
		r.rxAtB = append(r.rxAtB, task.Now())
		m.Free()
	}), 0); err != nil {
		t.Fatal(err)
	}
	return r
}

// frameTo builds a frame addressed to dst with an arbitrary type and payload.
func (r *rig) frameTo(dst view.MAC, payload int) *mbuf.Mbuf {
	b := make([]byte, view.EthernetHdrLen+payload)
	eth, _ := view.Ethernet(b)
	eth.SetDst(dst)
	eth.SetSrc(r.a.MAC())
	eth.SetEtherType(0x0800)
	return r.poolA.FromBytes(b, 0)
}

func (r *rig) send(t *testing.T, m *mbuf.Mbuf) {
	t.Helper()
	r.cpuA.Submit(sim.PrioKernel, "tx", func(task *sim.Task) {
		if err := r.a.Transmit(task, m); err != nil {
			t.Errorf("transmit: %v", err)
		}
	})
}

func TestUnicastDelivery(t *testing.T) {
	r := newRig(t, EthernetModel())
	r.send(t, r.frameTo(r.b.MAC(), 100))
	r.sim.Run()
	if len(r.rxB) != 1 || len(r.rxB[0]) != 114 {
		t.Fatalf("rxB = %d frames", len(r.rxB))
	}
	if r.a.Stats().TxFrames != 1 || r.b.Stats().RxFrames != 1 {
		t.Errorf("stats: %+v %+v", r.a.Stats(), r.b.Stats())
	}
}

func TestMACFilterDropsForeignFrames(t *testing.T) {
	r := newRig(t, EthernetModel())
	r.send(t, r.frameTo(view.MAC{2, 0, 0, 0, 0, 99}, 100)) // not B's address
	r.sim.Run()
	if len(r.rxB) != 0 {
		t.Fatal("foreign frame accepted")
	}
	if r.b.Stats().RxFiltered != 1 {
		t.Errorf("RxFiltered = %d", r.b.Stats().RxFiltered)
	}
}

func TestBroadcastAndMulticastAccepted(t *testing.T) {
	r := newRig(t, EthernetModel())
	r.send(t, r.frameTo(view.BroadcastMAC, 10))
	r.send(t, r.frameTo(view.MAC{0x01, 0x00, 0x5e, 0, 0, 1}, 10))
	r.sim.Run()
	if len(r.rxB) != 2 {
		t.Fatalf("rxB = %d, want broadcast+multicast", len(r.rxB))
	}
}

func TestSerializationDelay(t *testing.T) {
	r := newRig(t, EthernetModel())
	r.send(t, r.frameTo(r.b.MAC(), 1486)) // full 1500B frame
	r.sim.Run()
	if r.link.Frames() != 1 || r.link.Bytes() != 1500 {
		t.Fatalf("link stats: %d frames %d bytes", r.link.Frames(), r.link.Bytes())
	}
	// Serialization of 1500B at 10Mb/s = 1.2ms; the receive interrupt fires
	// after that plus propagation plus driver costs, so the simulation
	// cannot quiesce earlier.
	if r.sim.Now() < 1200*sim.Microsecond {
		t.Errorf("1500B at 10Mb/s should take ≥1.2ms, sim ended at %v", r.sim.Now())
	}
}

func TestMinFramePadding(t *testing.T) {
	model := EthernetModel()
	if model.serialization(10) != model.serialization(64) {
		t.Error("short frames must pad to the 64B minimum")
	}
	if model.serialization(100) <= model.serialization(64) {
		t.Error("serialization must grow past the minimum")
	}
	// ATM/T3 have no minimum.
	atm := ForeATMModel()
	if atm.serialization(10) >= atm.serialization(100) {
		t.Error("ATM serialization should scale from zero")
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	r := newRig(t, EthernetModel())
	m := r.frameTo(r.b.MAC(), 2000)
	r.cpuA.Submit(sim.PrioKernel, "tx", func(task *sim.Task) {
		if err := r.a.Transmit(task, m); err == nil {
			t.Error("oversize frame accepted")
		}
	})
	r.sim.Run()
}

func TestNonPacketMbufRejected(t *testing.T) {
	r := newRig(t, EthernetModel())
	m := r.poolA.Get() // no packet header
	r.cpuA.Submit(sim.PrioKernel, "tx", func(task *sim.Task) {
		if err := r.a.Transmit(task, m); err == nil {
			t.Error("non-packet mbuf accepted")
		}
	})
	r.sim.Run()
	m.Free()
}

func TestTxQueueOverflowDrops(t *testing.T) {
	model := EthernetModel()
	model.MaxBacklog = 5 * sim.Millisecond // ~4 full frames
	r := newRig(t, model)
	r.cpuA.Submit(sim.PrioKernel, "burst", func(task *sim.Task) {
		for i := 0; i < 20; i++ {
			b := make([]byte, 1514)
			eth, _ := view.Ethernet(b)
			eth.SetDst(r.b.MAC())
			eth.SetSrc(r.a.MAC())
			eth.SetEtherType(0x0800)
			if err := r.a.Transmit(task, r.poolA.FromBytes(b, 0)); err != nil {
				t.Errorf("transmit: %v", err)
			}
		}
	})
	r.sim.Run()
	st := r.a.Stats()
	if st.TxDrops == 0 {
		t.Fatal("no drops despite 20-frame burst over a 5ms queue")
	}
	if st.TxFrames+st.TxDrops != 20 {
		t.Errorf("accounting: %d sent + %d dropped != 20", st.TxFrames, st.TxDrops)
	}
	if uint64(len(r.rxB)) != st.TxFrames {
		t.Errorf("delivered %d of %d transmitted", len(r.rxB), st.TxFrames)
	}
}

// testImpairment is a scripted Impairment: down cuts the carrier, and each
// transmitted frame's fate comes from whichever of lose and dup are set. It
// counts what it did, as internal/fault's Injector does.
type testImpairment struct {
	down bool
	lose func(wire []byte) bool
	dup  func(wire []byte) bool

	downs, lost, dups int
}

func (ti *testImpairment) Down() bool {
	if ti.down {
		ti.downs++
	}
	return ti.down
}

func (ti *testImpairment) Frame(wire []byte) (bool, sim.Time, bool) {
	if ti.lose != nil && ti.lose(wire) {
		ti.lost++
		return true, 0, false
	}
	dup := ti.dup != nil && ti.dup(wire)
	if dup {
		ti.dups++
	}
	return false, 0, dup
}

func TestLossInjection(t *testing.T) {
	r := newRig(t, EthernetModel())
	n := 0
	imp := &testImpairment{lose: func(wire []byte) bool {
		n++
		return n%2 == 0
	}}
	r.link.Impair(imp)
	for i := 0; i < 6; i++ {
		r.send(t, r.frameTo(r.b.MAC(), 10))
	}
	r.sim.Run()
	if len(r.rxB) != 3 {
		t.Fatalf("delivered %d of 6 with 50%% loss", len(r.rxB))
	}
	if r.link.Dropped() != 3 || imp.lost != 3 {
		t.Errorf("Dropped = %d, impairment lost %d", r.link.Dropped(), imp.lost)
	}
}

// A down link discards frames silently; raising it restores delivery.
func TestLinkDownDropsFrames(t *testing.T) {
	r := newRig(t, EthernetModel())
	if r.link.down() {
		t.Fatal("new link must start up")
	}
	imp := &testImpairment{down: true}
	r.link.Impair(imp)
	r.send(t, r.frameTo(r.b.MAC(), 10))
	r.sim.Run()
	if len(r.rxB) != 0 {
		t.Fatal("frame delivered over a down link")
	}
	if r.link.Dropped() != 1 || imp.downs != 1 {
		t.Errorf("Dropped = %d, impairment saw %d frames while down", r.link.Dropped(), imp.downs)
	}
	imp.down = false
	r.send(t, r.frameTo(r.b.MAC(), 10))
	r.sim.Run()
	if len(r.rxB) != 1 {
		t.Fatalf("delivery did not resume after the carrier came back: %d frames", len(r.rxB))
	}
}

// The duplication hook delivers a frame twice to every receiver.
func TestDuplicationHook(t *testing.T) {
	r := newRig(t, EthernetModel())
	n := 0
	imp := &testImpairment{dup: func(wire []byte) bool {
		n++
		return n == 1 // duplicate only the first frame
	}}
	r.link.Impair(imp)
	r.send(t, r.frameTo(r.b.MAC(), 10))
	r.send(t, r.frameTo(r.b.MAC(), 10))
	r.sim.Run()
	if len(r.rxB) != 3 {
		t.Fatalf("delivered %d frames, want 3 (one duplicated)", len(r.rxB))
	}
	if imp.dups != 1 {
		t.Errorf("duplicated %d", imp.dups)
	}
}

// A replayed frame serializes after its original: the duplicate can never
// arrive at — let alone before — the original's instant, so FIFO queues
// downstream always see original first.
func TestDuplicateArrivesAfterOriginal(t *testing.T) {
	model := EthernetModel()
	r := newRig(t, model)
	r.link.Impair(&testImpairment{dup: func(wire []byte) bool { return true }})
	r.send(t, r.frameTo(r.b.MAC(), 100))
	r.sim.Run()
	if len(r.rxAtB) != 2 {
		t.Fatalf("received %d frames, want original + duplicate", len(r.rxAtB))
	}
	gap := r.rxAtB[1] - r.rxAtB[0]
	if gap < model.serialization(114) {
		t.Fatalf("duplicate arrived %v after original, want ≥ one serialization (%v)",
			gap, model.serialization(114))
	}
}

// Malformed frames are frame errors, not MAC-filter drops.
func TestMalformedFrameCountsRxErrors(t *testing.T) {
	r := newRig(t, EthernetModel())
	short := r.poolA.FromBytes(make([]byte, 8), 0) // too short for an Ethernet header
	r.send(t, short)
	r.send(t, r.frameTo(view.MAC{2, 0, 0, 0, 0, 99}, 100)) // foreign but well-formed
	r.sim.Run()
	st := r.b.Stats()
	if st.RxErrors != 1 {
		t.Errorf("RxErrors = %d, want 1", st.RxErrors)
	}
	if st.RxFiltered != 1 {
		t.Errorf("RxFiltered = %d, want 1 (malformed frames must not count here)", st.RxFiltered)
	}
	if len(r.rxB) != 0 {
		t.Errorf("%d frames delivered, want 0", len(r.rxB))
	}
}

// Every wire snapshot is released once deliveries quiesce — under loss,
// duplication, and plain delivery alike.
func TestLiveFramesBalanced(t *testing.T) {
	r := newRig(t, EthernetModel())
	n := 0
	r.link.Impair(&testImpairment{
		lose: func(wire []byte) bool {
			n++
			return n%3 == 0
		},
		dup: func(wire []byte) bool { return n%2 == 0 },
	})
	for i := 0; i < 12; i++ {
		r.send(t, r.frameTo(r.b.MAC(), 50))
	}
	r.sim.Run()
	if live := r.link.LiveFrames(); live != 0 {
		t.Fatalf("%d wire frames still referenced after quiescence", live)
	}
}

// PIO devices charge the sending and receiving CPUs per byte.
func TestPIOChargesCPU(t *testing.T) {
	dma := DECT3Model()
	pio := ForeATMModel()
	measure := func(model Model) (txBusy, rxBusy sim.Time) {
		r := newRig(t, model)
		r.send(t, r.frameTo(r.b.MAC(), 4000))
		r.sim.Run()
		return r.cpuA.Busy(), r.cpuB.Busy()
	}
	dmaTx, dmaRx := measure(dma)
	pioTx, pioRx := measure(pio)
	expected := sim.Time(4014) * pio.PIOPerByte
	if pioTx-dmaTx < expected-dma.TxDriver-pio.TxDriver-sim.Millisecond {
		// Loose check: PIO adds roughly per-byte × size over DMA.
		t.Errorf("PIO tx busy %v vs DMA %v; expected ≈ +%v", pioTx, dmaTx, expected)
	}
	if pioRx <= dmaRx {
		t.Errorf("PIO rx busy %v should exceed DMA rx busy %v", pioRx, dmaRx)
	}
}

func TestFastDriverHalvesCosts(t *testing.T) {
	m := EthernetModel()
	f := FastDriver(m)
	if f.TxDriver != m.TxDriver/2 || f.RxDriver != m.RxDriver/2 || f.IntrEntry != m.IntrEntry/2 {
		t.Error("FastDriver did not halve driver costs")
	}
	if f.Name == m.Name {
		t.Error("FastDriver must rename the model")
	}
}

func TestModelAccessors(t *testing.T) {
	r := newRig(t, EthernetModel())
	if r.a.name != "a/nic" || r.a.MTU() != 1500 || r.a.model.Name != "ethernet" {
		t.Error("NIC accessors wrong")
	}
	if r.a.MAC() != (view.MAC{2, 0, 0, 0, 0, 1}) {
		t.Error("MAC accessor wrong")
	}
}

package netdev

import (
	"testing"

	"plexus/internal/event"
	"plexus/internal/mbuf"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// xrig is a two-shard rig: NIC a on simulator sa, NIC b on simulator sb,
// joined by a Boundary and driven by an Engine.
type xrig struct {
	engine *sim.Engine
	sa, sb *sim.Sim
	bnd    *Boundary
	a, b   *NIC
	poolA  *mbuf.Pool
	poolB  *mbuf.Pool
	rxB    [][]byte
	rxAtB  []sim.Time
	rxAtA  []sim.Time
}

func newXRig(t *testing.T, model Model, echo bool) *xrig {
	t.Helper()
	r := &xrig{
		engine: sim.NewEngine(),
		sa:     sim.New(1),
		sb:     sim.New(2),
	}
	shardA := r.engine.AddShard(r.sa)
	shardB := r.engine.AddShard(r.sb)
	r.bnd = NewBoundary(model)
	r.engine.Connect(r.bnd.CouplingAB(), shardB)
	r.engine.Connect(r.bnd.CouplingBA(), shardA)

	ha, hb := testHost(r.sa, "a"), testHost(r.sb, "b")
	dispA, dispB := ha.Disp, hb.Disp
	r.poolA, r.poolB = ha.Pool, hb.Pool
	r.a = NewNIC(ha, "a/nic", model, r.bnd.LinkA(), view.MAC{2, 0, 0, 0, 0, 1})
	r.a.SetRecvRef(dispA.Ref(testRecvEvent))
	r.b = NewNIC(hb, "b/nic", model, r.bnd.LinkB(), view.MAC{2, 0, 0, 0, 0, 2})
	r.b.SetRecvRef(dispB.Ref(testRecvEvent))
	if _, err := dispA.Install(testRecvEvent, nil, event.Proc("sinkA", func(task *sim.Task, m *mbuf.Mbuf) {
		r.rxAtA = append(r.rxAtA, task.Now())
		m.Free()
	}), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := dispB.Install(testRecvEvent, nil, event.Proc("sinkB", func(task *sim.Task, m *mbuf.Mbuf) {
		data, _ := m.CopyData(0, m.PktLen())
		r.rxB = append(r.rxB, data)
		r.rxAtB = append(r.rxAtB, task.Now())
		if echo {
			reply := buildFrame(r.poolB, r.b.MAC(), r.a.MAC(), 64)
			if err := r.b.Transmit(task, reply); err != nil {
				t.Errorf("echo transmit: %v", err)
			}
		}
		m.Free()
	}), 0); err != nil {
		t.Fatal(err)
	}
	return r
}

func buildFrame(pool *mbuf.Pool, src, dst view.MAC, payload int) *mbuf.Mbuf {
	b := make([]byte, view.EthernetHdrLen+payload)
	eth, _ := view.Ethernet(b)
	eth.SetDst(dst)
	eth.SetSrc(src)
	eth.SetEtherType(0x0800)
	return pool.FromBytes(b, 0)
}

func (r *xrig) sendA(t *testing.T, payload int) {
	t.Helper()
	m := buildFrame(r.poolA, r.a.MAC(), r.b.MAC(), payload)
	r.a.host.CPU.Submit(sim.PrioKernel, "tx", func(task *sim.Task) {
		if err := r.a.Transmit(task, m); err != nil {
			t.Errorf("transmit: %v", err)
		}
	})
}

// TestBoundaryTimingMatchesLocalLink: a frame crossing a shard boundary must
// arrive at exactly the timestamp it would have on a same-model local link —
// the boundary is a scheduling artifact, not a network element.
func TestBoundaryTimingMatchesLocalLink(t *testing.T) {
	local := newRig(t, EthernetModel())
	local.send(t, local.frameTo(local.b.MAC(), 100))
	local.sim.Run()
	if len(local.rxAtB) != 1 {
		t.Fatalf("local rig delivered %d frames", len(local.rxAtB))
	}

	x := newXRig(t, EthernetModel(), false)
	x.sendA(t, 100)
	x.engine.Run(10*sim.Millisecond, 2)
	if len(x.rxAtB) != 1 {
		t.Fatalf("boundary delivered %d frames", len(x.rxAtB))
	}
	if x.rxAtB[0] != local.rxAtB[0] {
		t.Fatalf("boundary arrival %v, local link arrival %v", x.rxAtB[0], local.rxAtB[0])
	}
	if ab, _ := x.bnd.Transferred(); ab != 1 {
		t.Fatalf("transferred A→B = %d, want 1", ab)
	}
}

// TestBoundaryRoundTrip exercises both portals: B echoes every frame back.
func TestBoundaryRoundTrip(t *testing.T) {
	r := newXRig(t, EthernetModel(), true)
	const frames = 50
	for i := 0; i < frames; i++ {
		r.sendA(t, 100)
	}
	r.engine.Run(100*sim.Millisecond, 2)
	if len(r.rxAtB) != frames || len(r.rxAtA) != frames {
		t.Fatalf("B got %d, A got %d echoes, want %d each", len(r.rxAtB), len(r.rxAtA), frames)
	}
	ab, ba := r.bnd.Transferred()
	if ab != frames || ba != frames {
		t.Fatalf("transferred %d/%d, want %d/%d", ab, ba, frames, frames)
	}
	// All wire snapshots must be recycled at quiescence, both sides.
	if r.bnd.LinkA().LiveFrames() != 0 || r.bnd.LinkB().LiveFrames() != 0 {
		t.Fatalf("live frames at quiescence: a=%d b=%d",
			r.bnd.LinkA().LiveFrames(), r.bnd.LinkB().LiveFrames())
	}
}

// TestBoundaryDeterministicAcrossWorkers: identical delivery schedule at any
// engine worker count.
func TestBoundaryDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []sim.Time {
		r := newXRig(t, EthernetModel(), true)
		for i := 0; i < 20; i++ {
			r.sendA(t, 64+i*10)
		}
		r.engine.Run(50*sim.Millisecond, workers)
		return append(append([]sim.Time{}, r.rxAtB...), r.rxAtA...)
	}
	seq := run(1)
	par := run(2)
	if len(seq) != len(par) {
		t.Fatalf("delivery counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("delivery %d at %v (seq) vs %v (par)", i, seq[i], par[i])
		}
	}
}

// TestBoundaryDownLinkDrops: cutting the far side's carrier drops crossing
// frames exactly like a down local link.
func TestBoundaryDownLinkDrops(t *testing.T) {
	r := newXRig(t, EthernetModel(), false)
	imp := &testImpairment{down: true}
	r.bnd.LinkB().Impair(imp)
	r.sendA(t, 100)
	r.engine.Run(10*sim.Millisecond, 1)
	if len(r.rxAtB) != 0 {
		t.Fatalf("down link delivered %d frames", len(r.rxAtB))
	}
	if got := r.bnd.LinkB().Dropped(); got != 1 || imp.downs != 1 {
		t.Fatalf("down drops = %d, impairment saw %d, want 1", got, imp.downs)
	}
}

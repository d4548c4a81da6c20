package filter

import (
	"testing"

	"plexus/internal/mbuf"
	"plexus/internal/sim"
)

// runCost executes the program in a simulated task and returns the charged
// interpreter time.
func runCost(t *testing.T, p *Program, m *mbuf.Mbuf) sim.Time {
	t.Helper()
	s := sim.New(1)
	cpu := sim.NewCPU(s, "cpu")
	var charged sim.Time
	cpu.Submit(sim.PrioKernel, "filter", func(task *sim.Task) {
		p.Run(task, m)
		charged = task.Charged()
	})
	s.Run()
	return charged
}

func TestInterpretedCostCharged(t *testing.T) {
	m := mkPacket(t, pktSpec{proto: 17, dst: [4]byte{10, 0, 0, 2}, dport: 7})
	p, err := CompileInterpreted("ip.proto == 17 && udp.dport == 7", BaseEthernet)
	if err != nil {
		t.Fatal(err)
	}
	cost := runCost(t, p, m)
	if cost <= 0 {
		t.Fatal("interpreter charged nothing")
	}
	// All instructions execute on a full match: cost = len × per-instr.
	if want := sim.Time(p.Len()) * DefaultInstrCost; cost != want {
		t.Errorf("cost = %v, want %v (%d instrs)", cost, want, p.Len())
	}
}

func TestNativeGuardChargesNothingItself(t *testing.T) {
	m := mkPacket(t, pktSpec{proto: 17, dst: [4]byte{10, 0, 0, 2}, dport: 7})
	f, err := Parse("ip.proto == 17 && udp.dport == 7", BaseEthernet)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	cpu := sim.NewCPU(s, "cpu")
	var charged sim.Time
	guard := f.Guard()
	cpu.Submit(sim.PrioKernel, "guard", func(task *sim.Task) {
		if !guard(task, m) {
			t.Error("guard rejected matching packet")
		}
		charged = task.Charged()
	})
	s.Run()
	// The native guard costs only what the dispatcher charges for guard
	// evaluation; the closure itself is free (compiled code).
	if charged != 0 {
		t.Errorf("native guard charged %v", charged)
	}
}

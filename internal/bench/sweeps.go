package bench

import "plexus/internal/sim"

// TputBytes is the bulk-transfer size of the §4.2 throughput sweep.
const TputBytes = 1 << 20

// A Sweep is one committed experiment: Name is plexus-bench's -exp value and
// names BENCH_<Name>.json, and Run regenerates that file's rows.
type Sweep struct {
	Name string
	Run  func() (any, error)
}

// sweep names a run that returns typed rows.
func sweep[R any](name string, run func() ([]R, error)) Sweep {
	return Sweep{Name: name, Run: func() (any, error) { return run() }}
}

// Sweeps lists every experiment in plexus-bench's order, each with the
// parameters of its committed file; they are written here and nowhere else.
// hosts are the scale sweep's sharded host cells (nil for none).
func Sweeps(hosts []int) []Sweep {
	return []Sweep{
		sweep("fig5", func() ([]Fig5Row, error) { return Fig5(false) }),
		sweep("fig5-fastdriver", func() ([]Fig5Row, error) { return Fig5(true) }),
		sweep("tput", func() ([]TputRow, error) { return Throughput(TputBytes) }),
		sweep("fig6", func() ([]Fig6Row, error) { return Fig6([]int{1, 5, 10, 15, 20, 25, 30}) }),
		sweep("fig7", func() ([]Fig7Row, error) { return Fig7([]int{64, 256, 512, 1024, 1460}) }),
		sweep("http", func() ([]HTTPRow, error) { return HTTP(20) }),
		sweep("latency", func() ([]LatencyRow, error) { return Latency(200) }),
		sweep("loss", func() ([]LossRow, error) { return Loss([]float64{0, 0.01, 0.05, 0.10, 0.20}) }),
		sweep("rogue", func() ([]RogueRow, error) { return Rogue([]int{0, 1, 2, 4}) }),
		sweep("scale", func() ([]ScaleRow, error) {
			return Scale([]int{1, 4, 16, 64, 256}, hosts, 300*sim.Millisecond)
		}),
		// Per-client offered rate (req/s) × server-pool size. A VIP round
		// trip crosses eight 10Mb/s serializations (~1.4ms), so 400 req/s
		// per client is already deep into queueing on the gateway links.
		sweep("fabric", func() ([]FabricRow, error) {
			return Fabric([]int{100, 200, 400}, []int{2, 4, 8}, 200*sim.Millisecond)
		}),
		sweep("ablations", Ablations),
		sweep("telemetry", Telemetry),
		sweep("cc", CC),
	}
}

// Ablations runs every ablation in the order plexus-bench prints them.
func Ablations() ([]AblationRow, error) {
	var all []AblationRow
	for _, run := range []func() ([]AblationRow, error){
		func() ([]AblationRow, error) { return SpoofPolicyAblation(100) },
		func() ([]AblationRow, error) { return ChecksumAblation(1400) },
		func() ([]AblationRow, error) { return GuardChainAblation([]int{0, 10, 50, 100}) },
		func() ([]AblationRow, error) { return FilterBackendAblation(50) },
		func() ([]AblationRow, error) { return ILPAblation(10) },
	} {
		rows, err := run()
		if err != nil {
			return nil, err
		}
		all = append(all, rows...)
	}
	return all, nil
}

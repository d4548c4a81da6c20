package bench

import (
	"testing"

	"plexus/internal/sim"
)

// The sharded steady state is allocation-free: once the first pacing
// intervals have warmed the pools (mbufs, CPU submissions, switch ingress
// jobs, boundary frames, the engine's release rings), advancing the topology
// allocates nothing per event. This pin is what keeps allocs/event at scale
// two orders of magnitude under the per-op figure the client cells report.
func TestScaleSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin on a full host cell")
	}
	const step = 100 * sim.Millisecond
	// The clients keep sending past the last step the pin runs.
	top, _, err := buildHostCell(SysPlexusInterrupt, 2, scaleHostsPerSegment, scaleLocalInterval, sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	until := step
	top.Run(until, 1) // warm every pool through a full pacing interval
	start := top.Executed()
	const runs = 4
	avg := testing.AllocsPerRun(runs, func() {
		until += step
		top.Run(until, 1)
	})
	// AllocsPerRun ran the body runs+1 times (one warm-up invocation).
	events := float64(top.Executed()-start) / (runs + 1)
	if events == 0 {
		t.Fatal("no events executed")
	}
	perEvent := avg / events
	t.Logf("allocs/run=%.0f events/run=%.0f allocs/event=%.5f", avg, events, perEvent)
	if perEvent > 0.01 {
		t.Errorf("steady state allocates %.5f allocs/event (want <= 0.01)", perEvent)
	}
}

// BenchmarkShardBarrier prices the engine's conservative synchronization:
// two minimal shards plus the gateway advancing window by window, with one
// local echo per segment per round and a cross-segment client keeping frames
// in flight over both boundaries. One iteration is one lookahead window —
// every shard visited, release timestamps exchanged, and the couplings'
// in-flight frames handed over.
func BenchmarkShardBarrier(b *testing.B) {
	window := scaleUplinkModel().PropDelay
	top, ts, err := buildHostCell(SysPlexusInterrupt, 2, 3, window, sim.Time(b.N+2)*window)
	if err != nil {
		b.Fatal(err)
	}
	top.Run(window, 1) // settle ARP-less startup before timing
	b.ReportAllocs()
	b.ResetTimer()
	until := window
	for i := 0; i < b.N; i++ {
		until += window
		top.Run(until, 1)
	}
	b.StopTimer()
	all, _ := fold(ts)
	b.ReportMetric(float64(top.Executed())/float64(b.N), "events/round")
	b.ReportMetric(float64(all.ops)/float64(b.N), "ops/round")
}

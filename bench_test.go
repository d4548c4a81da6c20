// Package repro carries the repository-level benchmark harness: one
// testing.B benchmark per table and figure of the paper's evaluation, plus
// the microbenchmarks behind the architecture's headline claims (dispatch ≈
// procedure call; VIEW ≈ zero copy).
//
// Each benchmark runs the corresponding simulated experiment b.N times and
// reports the *simulated* metric (µs of latency, Mb/s of throughput, % of
// CPU) as custom units next to the usual wall-clock ns/op, so
// `go test -bench=. -benchmem` regenerates every row the paper reports.
package repro

import (
	"fmt"
	"testing"

	"plexus/internal/bench"
	"plexus/internal/event"
	"plexus/internal/mbuf"
	"plexus/internal/netdev"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// --- Figure 5: UDP round-trip latency --------------------------------------

func benchFig5(b *testing.B, model netdev.Model, sys bench.System) {
	b.Helper()
	var last sim.Time
	for i := 0; i < b.N; i++ {
		rtt, err := bench.UDPEchoRTT(model, sys, 8, 4)
		if err != nil {
			b.Fatal(err)
		}
		last = rtt
	}
	b.ReportMetric(last.Micros(), "sim-µs/RTT")
}

func BenchmarkFig5EthernetPlexusInterrupt(b *testing.B) {
	benchFig5(b, netdev.EthernetModel(), bench.SysPlexusInterrupt)
}
func BenchmarkFig5EthernetPlexusThread(b *testing.B) {
	benchFig5(b, netdev.EthernetModel(), bench.SysPlexusThread)
}
func BenchmarkFig5EthernetDUX(b *testing.B) {
	benchFig5(b, netdev.EthernetModel(), bench.SysDUX)
}
func BenchmarkFig5ATMPlexusInterrupt(b *testing.B) {
	benchFig5(b, netdev.ForeATMModel(), bench.SysPlexusInterrupt)
}
func BenchmarkFig5ATMPlexusThread(b *testing.B) {
	benchFig5(b, netdev.ForeATMModel(), bench.SysPlexusThread)
}
func BenchmarkFig5ATMDUX(b *testing.B) {
	benchFig5(b, netdev.ForeATMModel(), bench.SysDUX)
}
func BenchmarkFig5T3PlexusInterrupt(b *testing.B) {
	benchFig5(b, netdev.DECT3Model(), bench.SysPlexusInterrupt)
}
func BenchmarkFig5T3PlexusThread(b *testing.B) {
	benchFig5(b, netdev.DECT3Model(), bench.SysPlexusThread)
}
func BenchmarkFig5T3DUX(b *testing.B) {
	benchFig5(b, netdev.DECT3Model(), bench.SysDUX)
}

func benchDriverMin(b *testing.B, model netdev.Model) {
	b.Helper()
	var last sim.Time
	for i := 0; i < b.N; i++ {
		rtt, err := bench.DriverEchoRTT(model, 8, 4)
		if err != nil {
			b.Fatal(err)
		}
		last = rtt
	}
	b.ReportMetric(last.Micros(), "sim-µs/RTT")
}

func BenchmarkFig5EthernetDriverMin(b *testing.B) { benchDriverMin(b, netdev.EthernetModel()) }
func BenchmarkFig5ATMDriverMin(b *testing.B)      { benchDriverMin(b, netdev.ForeATMModel()) }
func BenchmarkFig5T3DriverMin(b *testing.B)       { benchDriverMin(b, netdev.DECT3Model()) }

// The §4.1 fast-driver variant (337µs Ethernet / 241µs ATM in the paper).
func BenchmarkFig5EthernetFastDriver(b *testing.B) {
	benchFig5(b, netdev.FastDriver(netdev.EthernetModel()), bench.SysPlexusInterrupt)
}
func BenchmarkFig5ATMFastDriver(b *testing.B) {
	benchFig5(b, netdev.FastDriver(netdev.ForeATMModel()), bench.SysPlexusInterrupt)
}

// --- §4.2 throughput table --------------------------------------------------

func benchTput(b *testing.B, model netdev.Model, sys bench.System) {
	b.Helper()
	var last float64
	for i := 0; i < b.N; i++ {
		mbps, err := bench.TCPThroughput(model, sys, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		last = mbps
	}
	b.ReportMetric(last, "sim-Mb/s")
}

func BenchmarkTputEthernetPlexus(b *testing.B) {
	benchTput(b, netdev.EthernetModel(), bench.SysPlexusInterrupt)
}
func BenchmarkTputEthernetDUX(b *testing.B) { benchTput(b, netdev.EthernetModel(), bench.SysDUX) }
func BenchmarkTputATMPlexus(b *testing.B) {
	benchTput(b, netdev.ForeATMModel(), bench.SysPlexusInterrupt)
}
func BenchmarkTputATMDUX(b *testing.B)   { benchTput(b, netdev.ForeATMModel(), bench.SysDUX) }
func BenchmarkTputT3Plexus(b *testing.B) { benchTput(b, netdev.DECT3Model(), bench.SysPlexusInterrupt) }
func BenchmarkTputT3DUX(b *testing.B)    { benchTput(b, netdev.DECT3Model(), bench.SysDUX) }

// --- Figure 6: video server CPU utilization ---------------------------------

func benchFig6(b *testing.B, streams int) {
	b.Helper()
	var spin, dux float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig6([]int{streams})
		if err != nil {
			b.Fatal(err)
		}
		spin = rows[0].Utilization[bench.SysPlexusInterrupt]
		dux = rows[0].Utilization[bench.SysDUX]
	}
	b.ReportMetric(spin*100, "sim-%CPU-SPIN")
	b.ReportMetric(dux*100, "sim-%CPU-DUX")
}

func BenchmarkFig6Streams5(b *testing.B)  { benchFig6(b, 5) }
func BenchmarkFig6Streams10(b *testing.B) { benchFig6(b, 10) }
func BenchmarkFig6Streams15(b *testing.B) { benchFig6(b, 15) }
func BenchmarkFig6Streams30(b *testing.B) { benchFig6(b, 30) }

// --- Figure 7: TCP redirection latency --------------------------------------

func benchFig7(b *testing.B, payload int) {
	b.Helper()
	var kernel, splice sim.Time
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig7([]int{payload})
		if err != nil {
			b.Fatal(err)
		}
		kernel = rows[0].KernelLatency
		splice = rows[0].SpliceLatency
	}
	b.ReportMetric(kernel.Micros(), "sim-µs-kernel")
	b.ReportMetric(splice.Micros(), "sim-µs-splice")
}

func BenchmarkFig7Payload64(b *testing.B)   { benchFig7(b, 64) }
func BenchmarkFig7Payload512(b *testing.B)  { benchFig7(b, 512) }
func BenchmarkFig7Payload1460(b *testing.B) { benchFig7(b, 1460) }

// --- µ1: dispatcher overhead ≈ procedure call (paper §2) --------------------

// BenchmarkDispatch measures the real (wall-clock) cost of the dispatcher
// mechanism itself: declare → raise through guard chains of varying length,
// whose rejecting guards are closures or, keyed, exact-match keys.
func benchDispatch(b *testing.B, guards int, keyed bool) {
	b.Helper()
	s := sim.New(1)
	cpu := sim.NewCPU(s, "cpu")
	d := event.NewDispatcher(event.Costs{})
	d.MustDeclare("E", event.Options{Key: func(m *mbuf.Mbuf) (event.Key, bool) { return event.Key(m.Bytes()[0]), true }})
	reject := func(*sim.Task, *mbuf.Mbuf) bool { return false }
	for i := 0; i < guards-1; i++ {
		h := event.Proc("r", func(*sim.Task, *mbuf.Mbuf) {})
		var err error
		if keyed {
			_, err = d.InstallKey("E", event.Key(i+1), h, 0)
		} else {
			_, err = d.Install("E", reject, h, 0)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	if _, err := d.Install("E", nil, event.Proc("h", func(*sim.Task, *mbuf.Mbuf) {}), 0); err != nil {
		b.Fatal(err)
	}
	m := mbuf.DefaultPool().FromBytes(make([]byte, 64), 16)
	defer m.Free()
	var task *sim.Task
	cpu.Submit(sim.PrioKernel, "bench", func(t *sim.Task) { task = t })
	s.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Raise(task, "E", m)
	}
}

func BenchmarkDispatch1Guard(b *testing.B)   { benchDispatch(b, 1, false) }
func BenchmarkDispatch8Guards(b *testing.B)  { benchDispatch(b, 8, false) }
func BenchmarkDispatch64Guards(b *testing.B) { benchDispatch(b, 64, false) }
func BenchmarkDispatch64Keyed(b *testing.B)  { benchDispatch(b, 64, true) }

// --- µ2: VIEW (zero-copy header access) vs copying --------------------------

func BenchmarkViewHeaderAccess(b *testing.B) {
	frame := make([]byte, 1514)
	ev, _ := view.Ethernet(frame)
	ev.SetEtherType(view.EtherTypeIPv4)
	frame[14] = 0x45
	var sink uint32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eth, _ := view.Ethernet(frame)
		if eth.EtherType() == view.EtherTypeIPv4 {
			ipv, _ := view.IPv4(frame[14:34])
			sink += uint32(ipv.TTL()) + ipv.Src().Uint32()
		}
	}
	_ = sink
}

func BenchmarkCopyHeaderAccess(b *testing.B) {
	frame := make([]byte, 1514)
	ev, _ := view.Ethernet(frame)
	ev.SetEtherType(view.EtherTypeIPv4)
	frame[14] = 0x45
	var sink uint32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The copying alternative the paper calls "unacceptable".
		hdr := make([]byte, 34)
		copy(hdr, frame[:34])
		eth, _ := view.Ethernet(hdr)
		if eth.EtherType() == view.EtherTypeIPv4 {
			ipv, _ := view.IPv4(hdr[14:34])
			sink += uint32(ipv.TTL()) + ipv.Src().Uint32()
		}
	}
	_ = sink
}

// --- mbuf operations ---------------------------------------------------------

func BenchmarkMbufPrependAdj(b *testing.B) {
	pool := mbuf.NewPool()
	for i := 0; i < b.N; i++ {
		m := pool.FromBytes(make([]byte, 1400), 64)
		m, _ = m.Prepend(8)
		m, _ = m.Prepend(20)
		m, _ = m.Prepend(14)
		m.Adj(42)
		m.Free()
	}
}

// --- sanity: the harness prints the same rows as cmd/plexus-bench -----------

func Example_fig5RowFormat() {
	fmt.Printf("%-10s %-22s %s\n", "device", "system", "RTT")
	// Output:
	// device     system                 RTT
}

// --- the paper's concluding HTTP demo ----------------------------------------

func benchHTTP(b *testing.B, sys bench.System) {
	b.Helper()
	var last sim.Time
	for i := 0; i < b.N; i++ {
		lat, err := bench.HTTPLatency(sys, 5)
		if err != nil {
			b.Fatal(err)
		}
		last = lat
	}
	b.ReportMetric(last.Micros(), "sim-µs/GET")
}

func BenchmarkHTTPSPINServer(b *testing.B) { benchHTTP(b, bench.SysPlexusInterrupt) }
func BenchmarkHTTPDUXServer(b *testing.B)  { benchHTTP(b, bench.SysDUX) }

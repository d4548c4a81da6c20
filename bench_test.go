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
	"strconv"
	"testing"

	"plexus/internal/bench"
	"plexus/internal/event"
	"plexus/internal/mbuf"
	"plexus/internal/netdev"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// simBench runs the sub-benchmark name of b: one simulated experiment b.N
// times, reporting the last run's simulated metrics, by unit, next to the
// wall-clock ns/op.
func simBench(b *testing.B, name string, run func() (map[string]float64, error)) {
	b.Run(name, func(b *testing.B) {
		var last map[string]float64
		for i := 0; i < b.N; i++ {
			m, err := run()
			if err != nil {
				b.Fatal(err)
			}
			last = m
		}
		for unit, v := range last {
			b.ReportMetric(v, unit)
		}
	})
}

// --- Figure 5: UDP round-trip latency --------------------------------------

func BenchmarkFig5(b *testing.B) {
	for _, model := range bench.Devices() {
		for _, sys := range []bench.System{bench.SysPlexusInterrupt, bench.SysPlexusThread, bench.SysDUX, bench.SysDriverMin} {
			simBench(b, model.Name+"/"+string(sys), func() (map[string]float64, error) {
				if sys == bench.SysDriverMin {
					rtt, err := bench.DriverEchoRTT(model, 8, 4)
					return map[string]float64{"sim-µs/RTT": rtt.Micros()}, err
				}
				rtt, err := bench.UDPEchoRTT(model, sys, 8, 4)
				return map[string]float64{"sim-µs/RTT": rtt.Micros()}, err
			})
		}
	}
}

// The §4.1 fast-driver variant (337µs Ethernet / 241µs ATM in the paper; the
// paper wrote none for T3).
func BenchmarkFig5FastDriver(b *testing.B) {
	for _, model := range bench.Devices()[:2] {
		simBench(b, model.Name, func() (map[string]float64, error) {
			rtt, err := bench.UDPEchoRTT(netdev.FastDriver(model), bench.SysPlexusInterrupt, 8, 4)
			return map[string]float64{"sim-µs/RTT": rtt.Micros()}, err
		})
	}
}

// --- §4.2 throughput table --------------------------------------------------

func BenchmarkTput(b *testing.B) {
	for _, model := range bench.Devices() {
		for _, sys := range []bench.System{bench.SysPlexusInterrupt, bench.SysDUX} {
			simBench(b, model.Name+"/"+string(sys), func() (map[string]float64, error) {
				mbps, err := bench.TCPThroughput(model, sys, bench.TputBytes)
				return map[string]float64{"sim-Mb/s": mbps}, err
			})
		}
	}
}

// --- Figure 6: video server CPU utilization ---------------------------------

func BenchmarkFig6(b *testing.B) {
	for _, streams := range []int{5, 10, 15, 30} {
		simBench(b, fmt.Sprintf("streams=%d", streams), func() (map[string]float64, error) {
			rows, err := bench.Fig6([]int{streams})
			if err != nil {
				return nil, err
			}
			u := rows[0].Utilization
			return map[string]float64{"sim-%CPU-SPIN": u[bench.SysPlexusInterrupt] * 100, "sim-%CPU-DUX": u[bench.SysDUX] * 100}, nil
		})
	}
}

// --- Figure 7: TCP redirection latency --------------------------------------

func BenchmarkFig7(b *testing.B) {
	for _, payload := range []int{64, 512, 1460} {
		simBench(b, fmt.Sprintf("payload=%d", payload), func() (map[string]float64, error) {
			rows, err := bench.Fig7([]int{payload})
			if err != nil {
				return nil, err
			}
			k, sp := rows[0].KernelLatency.Micros(), rows[0].SpliceLatency.Micros()
			return map[string]float64{"sim-µs-kernel": k, "sim-µs-splice": sp}, nil
		})
	}
}

// --- the paper's concluding HTTP demo ----------------------------------------

func BenchmarkHTTP(b *testing.B) {
	for _, sys := range []bench.System{bench.SysPlexusInterrupt, bench.SysDUX} {
		simBench(b, string(sys), func() (map[string]float64, error) {
			lat, err := bench.HTTPLatency(sys, 5)
			return map[string]float64{"sim-µs/GET": lat.Micros()}, err
		})
	}
}

// --- µ1: dispatcher overhead ≈ procedure call (paper §2) --------------------

// BenchmarkDispatch measures the real (wall-clock) cost of the dispatcher
// mechanism itself: declare → raise through guard chains of varying length,
// whose rejecting guards are closures or, keyed, exact-match keys.
func benchDispatch(b *testing.B, guards int, keyed bool) {
	b.Helper()
	s := sim.New(1)
	cpu := sim.NewCPU(s, "cpu")
	d := event.NewDispatcher(event.Costs{})
	d.MustDeclare("E", event.Options{Key: func(m *mbuf.Mbuf) (event.Key, event.Key, bool) {
		k := event.Key(m.Bytes()[0])
		return k, k, true
	}})
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
	m := mbuf.NewPool().FromBytes(make([]byte, 64), 16)
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

// BenchmarkDispatchKeyed raises past one run of rejecting keyed bindings:
// the event's key index makes 4,096 of them cost about what 64 do on the host,
// while the simulated charge stays one GuardEval each.
func BenchmarkDispatchKeyed(b *testing.B) {
	for _, n := range []int{64, 4096} {
		b.Run(strconv.Itoa(n), func(b *testing.B) { benchDispatch(b, n, true) })
	}
}

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

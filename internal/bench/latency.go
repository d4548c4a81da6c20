package bench

import (
	"fmt"

	"plexus/internal/mbuf"
	"plexus/internal/netdev"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/stats"
	"plexus/internal/view"
)

// This file implements the `-exp latency` experiment: the Figure 5 UDP echo
// workload re-run with the flight-recorder plane enabled and enough rounds
// for meaningful tail percentiles. Rows carry p50/p90/p99 RTT from the
// fixed-bucket histogram plane plus the server's mbuf gauge, so tail-latency
// and buffer-leak regressions are diffable across PRs. Every cell attaches
// its own stats.Recorder — metrics on — which doubles as a standing proof
// that recording perturbs neither the simulated results nor determinism.

// udpEchoRTTs runs the Figure 5 UDP ping-pong and returns every post-warm-up
// round-trip sample plus the server's mbuf gauge after the run. rec, when
// non-nil, is installed as the cell simulator's metrics sink before any
// traffic flows.
func udpEchoRTTs(model netdev.Model, sys System, payload, rounds int, rec sim.Metrics) ([]sim.Time, mbuf.Gauge, error) {
	n, client, server, err := twoHosts(model, sys)
	if err != nil {
		return nil, mbuf.Gauge{}, err
	}
	n.Sim.SetMetrics(rec)
	defer recordEvents(n.Sim)
	if err := startEchoServer(server); err != nil {
		return nil, mbuf.Gauge{}, err
	}
	msg := make([]byte, payload)
	var capp *plexus.UDPApp
	var starts, ends []sim.Time
	capp, err = client.OpenUDP(plexus.UDPAppOptions{}, func(t *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		t.Charge(client.Host.Costs.AppHandler)
		ends = append(ends, t.Now())
		if len(ends) < rounds+1 { // +1: warm-up round
			starts = append(starts, t.Now())
			_ = capp.Send(t, server.Addr(), 7, msg)
		}
	})
	if err != nil {
		return nil, mbuf.Gauge{}, err
	}
	client.Spawn("client", func(t *sim.Task) {
		starts = append(starts, t.Now())
		_ = capp.Send(t, server.Addr(), 7, msg)
	})
	n.Sim.RunUntil(60 * sim.Second)
	rtts, err := postWarmup(starts, ends, rounds)
	return rtts, server.Host.Pool.Gauge(), err
}

// rttSummary reduces round-trip samples through a fixed-bucket histogram to
// the percentile columns the rows report.
type rttSummary struct {
	Mean sim.Time `json:"mean_ns"`
	P50  sim.Time `json:"p50_ns"`
	P90  sim.Time `json:"p90_ns"`
	P99  sim.Time `json:"p99_ns"`
}

func summarize(rtts []sim.Time) rttSummary {
	var h stats.Histogram
	for _, r := range rtts {
		h.Observe(int64(r))
	}
	return rttSummary{
		Mean: sim.Time(h.Mean()),
		P50:  sim.Time(h.Quantile(0.50)),
		P90:  sim.Time(h.Quantile(0.90)),
		P99:  sim.Time(h.Quantile(0.99)),
	}
}

// LatencyRow is one cell of the `-exp latency` sweep.
type LatencyRow struct {
	Device string `json:"device"`
	System System `json:"system"`
	Rounds int    `json:"rounds"`
	rttSummary
	// Server-side mbuf gauge after the run: in-flight counts expose leaks,
	// high-water marks expose buffering regressions.
	Mbuf struct {
		InUse         int64 `json:"in_use"`
		ClustersInUse int64 `json:"clusters_in_use"`
		HighWater     int64 `json:"high_water"`
	} `json:"mbuf"`
	// HopsRecorded is the number of packet-lifecycle hops the cell's
	// recorder captured — a quick sanity signal that spans flowed.
	HopsRecorded uint64 `json:"hops_recorded"`
}

// Latency runs the UDP echo RTT distribution sweep with metrics enabled:
// every device × system, rounds ping-pongs each, one recorder per cell.
// Rows are byte-identical at any parallelism.
func Latency(rounds int) ([]LatencyRow, error) {
	const payload = 8
	type cell struct {
		model netdev.Model
		sys   System
	}
	var cells []cell
	for _, model := range Devices() {
		for _, sys := range []System{SysPlexusInterrupt, SysPlexusThread, SysDUX} {
			cells = append(cells, cell{model: model, sys: sys})
		}
	}
	return RunCells(cells, func(c cell) (LatencyRow, error) {
		rec := stats.NewRecorder()
		rtts, gauge, err := udpEchoRTTs(c.model, c.sys, payload, rounds, rec)
		if err != nil {
			return LatencyRow{}, fmt.Errorf("latency %s/%s: %w", c.model.Name, c.sys, err)
		}
		row := LatencyRow{Device: c.model.Name, System: c.sys, Rounds: rounds,
			rttSummary: summarize(rtts), HopsRecorded: rec.HopsRecorded()}
		row.Mbuf.InUse = gauge.InUse
		row.Mbuf.ClustersInUse = gauge.InUseClusters
		row.Mbuf.HighWater = gauge.HighWater
		return row, nil
	})
}

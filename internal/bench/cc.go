package bench

import (
	"fmt"

	"plexus/internal/fault"
	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/tcp"
	"plexus/internal/view"
)

// This file implements the `-exp cc` congestion-control experiment: two bulk
// TCP flows from separate client hosts converge on one switch port in front
// of a shared server, and the sweep asks how fairly each algorithm pair
// divides the bottleneck across a bandwidth × RTT × loss grid. The paper's
// application-specific stacks let every connection choose its own transport
// policy; this is the modern version of that question — NewReno, CUBIC, and
// a BBR-style paced sender, selectable per host, competing for one queue.
//
// Each cell reports per-flow goodput, retransmit ratio, the bottleneck
// port's queue occupancy, and Jain's fairness index over the two goodputs.
// The RFC 793 conformance checkers ride along on every host: a cell with an
// illegal transition fails the experiment rather than producing a row.

// CCRow is one cell of the fairness sweep.
type CCRow struct {
	AlgoA string `json:"algo_a"`
	AlgoB string `json:"algo_b"`
	// BandwidthMbps is the wire rate of every link in the cell; the server's
	// switch port is the bottleneck (two flows in, one port out).
	BandwidthMbps int `json:"bandwidth_mbps"`
	// PropDelayUs is the one-way propagation of each cable; the no-load RTT
	// is roughly four propagations plus two switch latencies.
	PropDelayUs int64 `json:"prop_delay_us"`
	// LossPct is the Bernoulli frame-loss probability injected on the
	// server's cable (both directions), in percent.
	LossPct float64 `json:"loss_pct"`

	// Per-flow receiver-observed goodput over each flow's delivery window.
	GoodputA float64 `json:"goodput_a_mbps"`
	GoodputB float64 `json:"goodput_b_mbps"`
	// Jain is Jain's fairness index over the two goodputs: (Σx)²/(n·Σx²),
	// 1.0 for a perfectly even split, 0.5 when one flow is starved.
	Jain float64 `json:"jain_index"`

	// Per-flow sender retransmit ratio: retransmitted / total segments.
	RexmitRatioA float64 `json:"rexmit_ratio_a"`
	RexmitRatioB float64 `json:"rexmit_ratio_b"`
	// SackRexmits counts scoreboard-driven selective retransmissions summed
	// over both senders — zero when SACK recovery never engaged.
	SackRexmits uint64 `json:"sack_rexmits"`

	// Bottleneck-port accounting: peak and mean output-queue depth sampled
	// every millisecond while the flows run, the queue bound, and tail drops.
	QueuePeak  int     `json:"queue_peak"`
	QueueMean  float64 `json:"queue_mean"`
	QueueCap   int     `json:"queue_cap"`
	PortDrops  uint64  `json:"port_drops"`
	FaultLost  uint64  `json:"fault_lost"`
	ElapsedSec float64 `json:"elapsed_sec"`

	// AuditTransitions/Violations aggregate the RFC 793 checkers on all
	// three hosts; violations must be zero for the row to exist at all.
	AuditTransitions uint64 `json:"audit_transitions"`
	AuditViolations  uint64 `json:"audit_violations"`
}

// jainIndex computes Jain's fairness index over the rates.
func jainIndex(xs ...float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// ccModel builds the cell's wire model: Ethernet driver costs at the swept
// rate and propagation, with a transmit backlog deep enough that congestion
// forms at the switch port queue, not the sender's interface queue.
func ccModel(bwMbps int, prop sim.Time) netdev.Model {
	m := netdev.EthernetModel()
	m.BitsPerSec = int64(bwMbps) * 1_000_000
	m.PropDelay = prop
	m.MaxBacklog = sim.Second
	return m
}

// ccJitter is the client-cable jitter bound for a wire rate: a quarter of a
// full-size frame's serialization time (303µs at 10Mb/s, 30µs at 100Mb/s).
func ccJitter(bwMbps int) sim.Time {
	frameTx := 1514 * 8 * 1000 * sim.Nanosecond / sim.Time(bwMbps)
	return frameTx / 4
}

// ccCell is one point of the sweep grid.
type ccCell struct {
	algoA, algoB string
	bwMbps       int
	prop         sim.Time
	loss         float64
	seed         int64 // 0 = seed 1
}

// Measurement window: goodput is counted only over [ccWindowStart,
// ccWindowEnd(bw)), after both flows have converged past slow start and
// before either sender's buffer can run dry — the standard steady-state
// fairness methodology, immune to end effects from one flow finishing first.
const (
	ccWindowStart = 1 * sim.Second
	// ccQueueFrames bounds the bottleneck port's output queue. Shallower
	// than the switch default so the AIMD sawtooth completes many loss
	// cycles inside the window (a deep queue at 10Mb/s holds ~77ms of
	// standing delay and converges too slowly to measure fairness).
	ccQueueFrames = 25
	// ccMinRTO is the senders' retransmission-timeout floor. The RFC 6298
	// 1s floor turns every lost retransmission into a full second of
	// silence; 200ms is the Linux default and keeps loss cells live.
	ccMinRTO = 200 * sim.Millisecond
)

// ccWindowEnd picks the measurement window for a wire rate. At 10Mb/s one
// AIMD sawtooth period is ~0.35s, so a short window samples only a handful
// of loss cycles and the measured split is mostly luck; 12s averages ~30
// cycles. At 100Mb/s cycles are an order of magnitude faster and 4s is
// plenty — and the shorter horizon keeps each sender's offered-load buffer
// (which scales with rate × duration) reasonable.
func ccWindowEnd(bwMbps int) sim.Time {
	if bwMbps <= 10 {
		return ccWindowStart + 12*sim.Second
	}
	return ccWindowStart + 4*sim.Second
}

// ccHorizon is the cell's run length: the window plus drain slack.
func ccHorizon(bwMbps int) sim.Time {
	return ccWindowEnd(bwMbps) + 50*sim.Millisecond
}

// ccOfferedBytes sizes each sender's offered load: ~10% more than the wire
// could move inside the horizon even if one flow captured the whole
// bottleneck, so neither sender ever runs dry.
func ccOfferedBytes(bwMbps int) int {
	horizonSec := float64(ccHorizon(bwMbps)) / float64(sim.Second)
	return int(float64(bwMbps) * 125_000 * horizonSec * 1.1)
}

// ccRED is the bottleneck ports' RED profile (see REDConfig).
var ccRED = netdev.REDConfig{MinFrames: 6, MaxFrames: 15, MaxProb: 0.2}

// ccFlow accumulates one flow's in-window delivery and the sender
// connection handle its retransmit counters are read from after the run.
type ccFlow struct {
	got      int // bytes delivered inside the measurement window
	gotTotal int
	app      *plexus.TCPApp
}

// runCCInner runs one fairness cell: two clients each offer size bytes (more
// than the wire can move inside the horizon, so neither sender runs dry) to
// the server through the shared switch, flow B starting 5ms after flow A so
// the cell measures convergence to fairness rather than lockstep symmetry.
// Beside the row it returns both senders' connection counters, read after
// the run, for tests that assert on recovery behavior.
func runCCInner(c ccCell, size int) (CCRow, [2]tcp.ConnStats, error) {
	winEnd := ccWindowEnd(c.bwMbps)
	model := ccModel(c.bwMbps, c.prop)
	spec := func(name, cc string) plexus.HostSpec {
		return plexus.HostSpec{Name: name, Personality: osmodel.SPIN,
			Dispatch: osmodel.DispatchInterrupt, CC: cc,
			MinRTO: ccMinRTO}
	}
	seed := c.seed
	if seed == 0 {
		seed = 1
	}
	top, err := plexus.NewTopology(seed, nil, []plexus.SegmentSpec{{
		Name: "cc", Model: model, Switched: true,
		Switch: netdev.SwitchConfig{
			QueueFrames: ccQueueFrames,
			// RED desynchronizes the two AIMD sawtooths; pure tail drop
			// phase-locks them and one flow wins every queue-full race.
			RED: ccRED,
		},
		Subnet: view.IP4{10, 0, 1, 0},
		Hosts: []plexus.HostSpec{
			spec("flowA", c.algoA),
			spec("flowB", c.algoB),
			spec("server", ""),
		},
	}})
	if err != nil {
		return CCRow{}, [2]tcp.ConnStats{}, err
	}
	top.PrimeARP()
	defer recordEvents(top.Sim)
	seg := top.Segments[0]
	fa, fb, srv := seg.Hosts[0], seg.Hosts[1], seg.Hosts[2]

	aud := attachAudit(fa, fb, srv)

	// One injector per cable: the drop hook runs on the host-transmit side
	// of a wire, so the clients' cables lose data frames and the server's
	// cable loses ACKs — loss in both directions of every flow.
	injs := make([]*fault.Injector, len(seg.Cables))
	for i, cable := range seg.Cables {
		injs[i] = fault.Attach(top.Sim, cable)
		if c.loss > 0 {
			injs[i].Lose(fault.Bernoulli{P: c.loss})
		}
		if i < 2 {
			// Client cables only: per-frame seeded timing jitter. A
			// deterministic drop-tail queue phase-locks two synchronized
			// AIMD flows — the same sender wins every queue-full race —
			// so the rig injects the clock skew a real network has. A
			// quarter of one frame's serialization time decorrelates the
			// arrival phase but can never reorder back-to-back frames.
			injs[i].Delay(fault.Jitter{P: 1, Max: ccJitter(c.bwMbps)})
		}
	}

	// Demux the two flows by client address on the shared listener.
	flows := [2]ccFlow{}
	flowOf := func(conn *plexus.TCPApp) *ccFlow {
		addr, _ := conn.Conn().RemoteAddr()
		if addr == fa.Addr() {
			return &flows[0]
		}
		return &flows[1]
	}
	_, err = srv.ListenTCP(5001, plexus.TCPAppOptions{
		OnRecv: func(t *sim.Task, conn *plexus.TCPApp, data []byte) {
			f := flowOf(conn)
			f.gotTotal += len(data)
			if now := t.Now(); now >= ccWindowStart && now < winEnd {
				f.got += len(data)
			}
		},
		OnPeerFin: func(t *sim.Task, conn *plexus.TCPApp) { conn.Close(t) },
	}, nil)
	if err != nil {
		return CCRow{}, [2]tcp.ConnStats{}, err
	}

	msg := make([]byte, size)
	start := func(host *plexus.Stack, f *ccFlow, at sim.Time) {
		host.SpawnAt(at, "cc-sender", func(t *sim.Task) {
			f.app, _ = host.ConnectTCP(t, srv.Addr(), 5001, plexus.TCPAppOptions{
				OnEstablished: func(t2 *sim.Task, conn *plexus.TCPApp) {
					_ = conn.Send(t2, msg)
				},
			})
		})
	}
	start(fa, &flows[0], 1*sim.Millisecond)
	start(fb, &flows[1], 6*sim.Millisecond)

	// Sample the bottleneck port's output queue every millisecond over the
	// measurement window — the series the cwnd sawtooth is judged against.
	port := seg.Switch.Ports()[2]
	var peak int
	var depthSum, samples int64
	var sample func(t *sim.Task)
	sample = func(t *sim.Task) {
		d := port.QueueDepth(t.Now())
		if d > peak {
			peak = d
		}
		depthSum += int64(d)
		samples++
		if t.Now()+sim.Millisecond < winEnd {
			srv.SpawnAt(t.Now()+sim.Millisecond, "cc-qsample", sample)
		}
	}
	srv.SpawnAt(ccWindowStart, "cc-qsample", sample)

	top.Sim.RunUntil(ccHorizon(c.bwMbps))

	if err := aud.check(); err != nil {
		return CCRow{}, [2]tcp.ConnStats{}, err
	}
	if flows[0].gotTotal == 0 || flows[1].gotTotal == 0 {
		return CCRow{}, [2]tcp.ConnStats{}, fmt.Errorf("bench: cc flow stalled: A %d B %d bytes delivered",
			flows[0].gotTotal, flows[1].gotTotal)
	}
	for i := range flows {
		// A drained send buffer means the cell measured idle wire, not
		// congestion — the offered load was sized wrong for this grid point.
		if flows[i].gotTotal >= size {
			return CCRow{}, [2]tcp.ConnStats{}, fmt.Errorf("bench: cc flow %d ran dry: delivered all %d offered bytes", i, size)
		}
	}

	window := (winEnd - ccWindowStart).Seconds()
	goodput := func(f *ccFlow) float64 {
		return float64(f.got) * 8 / window / 1e6
	}
	stats := [2]tcp.ConnStats{flows[0].app.Conn().Stats(), flows[1].app.Conn().Stats()}
	ratio := func(st tcp.ConnStats) float64 {
		if st.SegsSent == 0 {
			return 0
		}
		return float64(st.Retransmits) / float64(st.SegsSent)
	}
	row := CCRow{
		GoodputA:         goodput(&flows[0]),
		GoodputB:         goodput(&flows[1]),
		RexmitRatioA:     ratio(stats[0]),
		RexmitRatioB:     ratio(stats[1]),
		SackRexmits:      stats[0].SackRexmits + stats[1].SackRexmits,
		QueuePeak:        peak,
		QueueCap:         seg.Switch.QueueCap(),
		PortDrops:        port.Stats().Drops,
		AuditTransitions: aud.transitions(),
	}
	for _, in := range injs {
		row.FaultLost += in.Stats().Lost
	}
	row.Jain = jainIndex(row.GoodputA, row.GoodputB)
	if samples > 0 {
		row.QueueMean = float64(depthSum) / float64(samples)
	}
	row.ElapsedSec = window
	return row, stats, nil
}

// ccSeeds is the number of independent replications per grid point. One
// deterministic run is a single sample of a chaotic system — which flow edges
// ahead at a given seed is luck — so each cell averages its goodputs over
// ccSeeds seeded topologies and reports Jain's index of the mean rates.
const ccSeeds = 4

// runCCCell runs one grid point's replications and aggregates them into the
// published row: mean goodputs and retransmit ratios, fairness of the means,
// summed drop/loss/audit counters, and the worst queue peak.
func runCCCell(c ccCell) (CCRow, error) {
	var agg CCRow
	for seed := int64(1); seed <= ccSeeds; seed++ {
		c.seed = seed
		row, _, err := runCCInner(c, ccOfferedBytes(c.bwMbps))
		if err != nil {
			return CCRow{}, fmt.Errorf("cc %s/%s %dMbps %v %.0f%% seed %d: %w",
				c.algoA, c.algoB, c.bwMbps, c.prop, 100*c.loss, seed, err)
		}
		agg.GoodputA += row.GoodputA / ccSeeds
		agg.GoodputB += row.GoodputB / ccSeeds
		agg.RexmitRatioA += row.RexmitRatioA / ccSeeds
		agg.RexmitRatioB += row.RexmitRatioB / ccSeeds
		agg.QueueMean += row.QueueMean / ccSeeds
		if row.QueuePeak > agg.QueuePeak {
			agg.QueuePeak = row.QueuePeak
		}
		agg.QueueCap = row.QueueCap
		agg.SackRexmits += row.SackRexmits
		agg.PortDrops += row.PortDrops
		agg.FaultLost += row.FaultLost
		agg.ElapsedSec += row.ElapsedSec
		agg.AuditTransitions += row.AuditTransitions
		agg.AuditViolations += row.AuditViolations
	}
	agg.Jain = jainIndex(agg.GoodputA, agg.GoodputB)
	return agg, nil
}

// CC runs the fairness sweep: algorithm pair × bandwidth × RTT × loss, each
// cell ccSeeds independent seeded simulators fanned out over RunCells — rows
// are byte-identical at any -parallel or -shards setting. The offered load
// scales with bandwidth so it exceeds what the wire can move inside the
// horizon: both senders stay backlogged through the measurement window.
func CC() ([]CCRow, error) {
	pairs := [][2]string{
		{"newreno", "newreno"},
		{"cubic", "cubic"},
		{"bbr", "bbr"},
		{"newreno", "cubic"},
	}
	var cells []ccCell
	for _, p := range pairs {
		for _, bw := range []int{10, 100} {
			for _, prop := range []sim.Time{50 * sim.Microsecond, 1 * sim.Millisecond} {
				for _, loss := range []float64{0, 0.02} {
					cells = append(cells, ccCell{algoA: p[0], algoB: p[1], bwMbps: bw, prop: prop, loss: loss})
				}
			}
		}
	}
	return RunCells(cells, func(c ccCell) (CCRow, error) {
		row, err := runCCCell(c)
		if err != nil {
			return CCRow{}, err
		}
		row.AlgoA = c.algoA
		row.AlgoB = c.algoB
		row.BandwidthMbps = c.bwMbps
		row.PropDelayUs = int64(c.prop / sim.Microsecond)
		row.LossPct = 100 * c.loss
		return row, nil
	})
}

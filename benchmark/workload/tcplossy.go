package workload

import (
	"fmt"

	"plexus/internal/fault"
	"plexus/internal/netdev"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/tcp"
	"plexus/internal/telemetry"
	"plexus/internal/view"
)

// tcp-lossy sizes: one `-exp cc` cell held long. Two backlogged flows
// (NewReno on one client, CUBIC on the other, SACK negotiated) share the
// server's 100 Mb/s switch port under RED, with 2 % Bernoulli frame loss on
// every cable (data on the clients' cables, ACKs on the server's) and the
// sweep's quarter-frame jitter on the client cables.
const (
	lossyMbps      = 100
	lossyProp      = 250 * sim.Microsecond // four propagations ≈ 1 ms path
	lossyLoss      = 0.02
	lossyMinRTO    = 200 * sim.Millisecond
	lossyQueue     = 25
	lossySimTime   = 90 * sim.Second
	lossyHandshake = 20 * sim.Millisecond
	lossyDrain     = 500 * sim.Millisecond
)

var lossyRED = netdev.REDConfig{MinFrames: 6, MaxFrames: 15, MaxProb: 0.2}

// MonitorSegment attaches the workload's 1 ms probe set, watchdogs armed, to
// a single-segment switched topology: event-queue depth, every switch port,
// and per host its cable, mbuf pool and TCP connections. The layer probe
// times one tick of the same set.
func MonitorSegment(top *plexus.Topology) *telemetry.Engine {
	seg := top.Segments[0]
	eng := telemetry.New(top.Sim, telemetry.Options{Interval: sim.Millisecond})
	telemetry.AttachSimQueue(eng, seg.Name, top.Sim)
	telemetry.AttachSwitch(eng, seg.Switch, 100*sim.Millisecond)
	for i, h := range seg.Hosts {
		telemetry.AttachLink(eng, h.Name(), seg.Cables[i])
		telemetry.AttachPool(eng, h.Name(), h.Host.Pool, 1<<20)
		telemetry.AttachTCP(eng, h.TCP, telemetry.TCPOptions{StallWindow: 5 * sim.Second})
	}
	return eng
}

type lossyRig struct {
	w     *world
	top   *plexus.Topology
	srcs  [2]*streamSource
	sinks [2]*streamSink
}

func buildTCPLossy(p Params, pats [2]*streamPattern, rec *recorder) (*lossyRig, error) {
	model := netdev.EthernetModel()
	model.BitsPerSec = lossyMbps * 1_000_000
	model.PropDelay = lossyProp
	model.MaxBacklog = sim.Second
	spec := func(name, cc string) plexus.HostSpec {
		h := SpinHost(name)
		h.CC, h.MinRTO = cc, lossyMinRTO
		return h
	}
	top, err := plexus.NewTopology(p.Seed, nil, []plexus.SegmentSpec{{
		Name: "cc", Model: model, Switched: true,
		Switch: netdev.SwitchConfig{QueueFrames: lossyQueue, RED: lossyRED},
		Subnet: view.IP4{10, 0, 1, 0},
		Hosts:  []plexus.HostSpec{spec("flowA", "newreno"), spec("flowB", "cubic"), spec("server", "")},
	}})
	if err != nil {
		return nil, err
	}
	top.PrimeARP()
	seg := top.Segments[0]
	fa, fb, srv := seg.Hosts[0], seg.Hosts[1], seg.Hosts[2]
	w := &world{sims: []*sim.Sim{top.Sim}, stacks: seg.Hosts, servers: []*plexus.Stack{srv},
		switches: []*netdev.Switch{seg.Switch}, connsOpened: 2}
	rig := &lossyRig{w: w, top: top}

	// This workload pays for observability on every repetition: RFC 793
	// checkers on all three hosts and the 1 ms telemetry probe set with its
	// watchdogs armed.
	w.attachAudit()
	eng := MonitorSegment(top)
	eng.Start()
	w.engines = append(w.engines, eng)

	jitter := 1514 * 8 * 1000 * sim.Nanosecond / lossyMbps / 4
	for i, cable := range seg.Cables {
		in := fault.Attach(top.Sim, cable)
		in.Lose(fault.Bernoulli{P: lossyLoss})
		if i < 2 {
			in.Delay(fault.Jitter{P: 1, Max: jitter})
		}
	}

	for i := range rig.sinks {
		rig.sinks[i] = &streamSink{pat: pats[i], rec: rec, w: w, sim: top.Sim}
	}
	_, err = srv.ListenTCP(5001, plexus.TCPAppOptions{
		OnRecv: func(t *sim.Task, conn *plexus.TCPApp, data []byte) {
			i := 1
			if addr, _ := conn.Conn().RemoteAddr(); addr == fa.Addr() {
				i = 0
			}
			rig.sinks[i].deliver(t.Now(), data)
			w.sampleQueue(seg.Switch.Ports()[2], t.Now())
		},
	}, nil)
	if err != nil {
		return nil, err
	}
	var dialErr error
	for i, h := range []*plexus.Stack{fa, fb} {
		i, h := i, h
		rig.srcs[i] = &streamSource{host: h, pat: pats[i]}
		// Flow B starts 5 ms after flow A, as in the sweep: the cell measures
		// convergence, not lockstep symmetry.
		h.SpawnAt(sim.Millisecond+sim.Time(i)*5*sim.Millisecond, "dial", func(t *sim.Task) {
			var err error
			if rig.srcs[i].app, err = h.ConnectTCP(t, srv.Addr(), 5001, plexus.TCPAppOptions{}); err != nil {
				dialErr = err
			}
		})
	}
	// A lost SYN costs a retransmission timeout; setup runs until both
	// handshakes are through.
	for at := lossyHandshake; ; at += lossyMinRTO {
		top.Sim.RunUntil(at)
		if dialErr != nil {
			return nil, dialErr
		}
		a, b := rig.srcs[0].app, rig.srcs[1].app
		if a != nil && b != nil && a.State() == tcp.StateEstablished && b.State() == tcp.StateEstablished {
			break
		}
		if at > 20*sim.Second {
			return nil, fmt.Errorf("tcp-lossy: handshakes not complete after %v", at)
		}
	}
	for _, s := range rig.srcs {
		w.tracked = append(w.tracked, s.app.Conn())
	}
	return rig, nil
}

func runTCPLossy(p Params) (*Result, error) {
	dur := scaled(lossySimTime, p.Size, 500*sim.Millisecond)
	pats := [2]*streamPattern{newStreamPattern(p.Seed, 1), newStreamPattern(p.Seed, 2)}
	var rec *recorder
	rig, setup, err := timedSetup(32, func() (*lossyRig, error) {
		rec = newRecorder(int(dur.Seconds()*lossyMbps*1e6/8/bulkChunk) + 16)
		return buildTCPLossy(p, pats, rec)
	})
	if err != nil {
		return nil, err
	}
	w, s := rig.w, rig.top.Sim
	w.install(p.Sink)
	run := measured{w: w, rec: rec, setup: setup, window: dur}
	run.begin()
	start := s.Now()
	for i, src := range rig.srcs {
		rig.sinks[i].lastOp = start
		s.AtArg(start, "stream-topup", streamTopUp, src)
	}
	s.RunUntil(start + dur)
	run.end()

	rates := make([]float64, len(rig.sinks))
	for i, sk := range rig.sinks {
		rates[i] = float64(sk.got)
		if sk.got == 0 {
			rec.fail("flow %d delivered nothing", i)
		}
	}
	w.extra = map[string]float64{"sim_fairness_jain": jain(rates)}
	return run.result(func() {
		// Backlogged flows never finish: reset both, let the wires drain,
		// then every pool must be back to its baseline.
		for _, src := range rig.srcs {
			src := src
			src.closed = true
			src.host.Spawn("abort", func(t *sim.Task) { src.app.Conn().Abort(t) })
		}
		for _, e := range w.engines {
			e.Stop()
		}
		s.RunUntil(s.Now() + lossyDrain)
	})
}

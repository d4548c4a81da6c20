package workload

import (
	"fmt"
	"math"

	"plexus/internal/activemsg"
	"plexus/internal/audit"
	"plexus/internal/bench"
	"plexus/internal/fault"
	"plexus/internal/forward"
	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/plexus"
	"plexus/internal/seqpkt"
	"plexus/internal/sim"
	"plexus/internal/video"
	"plexus/internal/view"
)

// paper-suite runs the paper's evaluation rigs (internal/bench) back to back
// and turns every numeric anchor and every ticked ordering of EXPERIMENTS.md
// into one op: a paper check. The bench rigs build their own simulators with
// seed 1, so this workload's simulated results do not depend on the seed.
//
// The rigs return rows, not stacks, so the per-layer counts and the
// simulated-CPU split come from rigs this file rebuilds on the public
// constructors: the Figure 5 Ethernet echo on Plexus and on DIGITAL UNIX, the
// two Figure 7 forwarders, a video stream, and the two example protocols.

// anchor is one number the paper states, what this commit reproduces it as,
// and the deviation it may not exceed (this commit's, rounded up): the bound
// on paper_dev_max_pct is "no worse".
type anchor struct {
	name   string
	paper  float64
	maxDev float64 // percent
}

var anchors = []anchor{
	{"fig5 ethernet fast-driver RTT 337us", 337, 2.5},
	{"fig5 atm fast-driver RTT 241us", 241, 2.2},
	{"fig5 t3 RTT ~300us", 300, 10.1},
	{"tput ethernet plexus 8.9Mb/s", 8.9, 6.4},
	{"tput ethernet dux 8.9Mb/s", 8.9, 6.2},
	{"tput atm plexus 33Mb/s", 33, 23.7},
	{"tput atm dux 27.9Mb/s", 27.9, 23.1},
}

const (
	paperEchoRounds = 1000
	paperEchoBytes  = 8
)

// paperChecks evaluates one pass over the bench rigs. ours receives the
// reproduced value of each anchor, in anchors order.
func paperChecks(size float64, check func(name string, ok bool), ours *[]float64) (goodput float64, err error) {
	fig5, err := bench.Fig5(false)
	if err != nil {
		return 0, err
	}
	fast, err := bench.Fig5(true)
	if err != nil {
		return 0, err
	}
	tput, err := bench.Throughput(1 << 20)
	if err != nil {
		return 0, err
	}
	streams := []int{1, 5, 10, 15, 20, 25, 30}
	if size < 1 {
		streams = []int{15, 20} // the smoke test keeps the saturation check only
	}
	fig6, err := bench.Fig6(streams)
	if err != nil {
		return 0, err
	}
	fig7, err := bench.Fig7([]int{64, 256, 512, 1024, 1460})
	if err != nil {
		return 0, err
	}
	httpRows, err := bench.HTTP(20)
	if err != nil {
		return 0, err
	}

	rtt := map[string]map[bench.System]sim.Time{}
	for _, r := range append(fig5, fast...) {
		if rtt[r.Device] == nil {
			rtt[r.Device] = map[bench.System]sim.Time{}
		}
		rtt[r.Device][r.System] = r.RTT
	}
	for _, dev := range []string{"ethernet", "fore-atm", "dec-t3"} {
		d := rtt[dev]
		check("fig5 "+dev+" drivers < interrupt", d[bench.SysDriverMin] < d[bench.SysPlexusInterrupt])
		check("fig5 "+dev+" interrupt < thread", d[bench.SysPlexusInterrupt] < d[bench.SysPlexusThread])
		check("fig5 "+dev+" thread < DIGITAL UNIX", d[bench.SysPlexusThread] < d[bench.SysDUX])
	}
	check("fig5 ethernet plexus < 600us", rtt["ethernet"][bench.SysPlexusInterrupt] < 600*sim.Microsecond)
	check("fig5 atm plexus < 350us", rtt["fore-atm"][bench.SysPlexusInterrupt] < 350*sim.Microsecond)

	mbps := map[string]map[bench.System]float64{}
	for _, r := range tput {
		if mbps[r.Device] == nil {
			mbps[r.Device] = map[bench.System]float64{}
		}
		mbps[r.Device][r.System] = r.Mbps
	}
	eth, atm := mbps["ethernet"], mbps["fore-atm"]
	check("tput ethernet systems within 2%", math.Abs(eth[bench.SysPlexusInterrupt]/eth[bench.SysDUX]-1) < 0.02)
	ratio := atm[bench.SysPlexusInterrupt] / atm[bench.SysDUX]
	check("tput atm plexus/dux ratio near 1.18", ratio > 1.10 && ratio < 1.26)

	*ours = append(*ours,
		rtt["ethernet-fastdrv"][bench.SysPlexusInterrupt].Micros(),
		rtt["fore-atm-fastdrv"][bench.SysPlexusInterrupt].Micros(),
		rtt["dec-t3"][bench.SysPlexusInterrupt].Micros(),
		eth[bench.SysPlexusInterrupt], eth[bench.SysDUX],
		atm[bench.SysPlexusInterrupt], atm[bench.SysDUX])

	best := 0
	for i, r := range fig6 {
		spin, dux := r.Utilization[bench.SysPlexusInterrupt], r.Utilization[bench.SysDUX]
		check(fmt.Sprintf("fig6 %d streams plexus cpu < dux cpu", r.Streams), spin < dux)
		if i > 0 {
			prev := fig6[i-1]
			check(fmt.Sprintf("fig6 cpu grows %d -> %d streams", prev.Streams, r.Streams),
				spin > prev.Utilization[bench.SysPlexusInterrupt] && dux > prev.Utilization[bench.SysDUX])
		}
		if r.GoodputMbps > fig6[best].GoodputMbps {
			best = i
		}
	}
	check("fig6 network saturates at 15 streams", fig6[best].Streams == 15)
	for _, r := range fig7 {
		check(fmt.Sprintf("fig7 %dB kernel < splice", r.PayloadBytes), r.KernelLatency < r.SpliceLatency)
	}
	lat := map[bench.System]sim.Time{}
	for _, r := range httpRows {
		lat[r.System] = r.Latency
	}
	check("http plexus < dux", lat[bench.SysPlexusInterrupt] < lat[bench.SysDUX])
	return eth[bench.SysPlexusInterrupt], nil
}

// paperRigs are this file's own rebuilds, built in set-up and run inside the
// measured window.
type paperRigs struct {
	w    *world
	rec  *recorder
	nets []*plexus.Network
	// rounds counts the two rebuilt echoes' round trips; verify holds each
	// rig's check, run after the window.
	rounds [2]int
	verify []func(check func(string, bool))
}

func (r *paperRigs) add(n *plexus.Network) {
	n.Sim.SetSpanBase(sim.SpanBase(len(r.nets) + 1))
	r.nets = append(r.nets, n)
	r.w.sims = append(r.w.sims, n.Sim)
	r.w.stacks = append(r.w.stacks, n.Hosts...)
}

// addEcho rebuilds the Figure 5 UDP ping-pong on the Ethernet model.
func (r *paperRigs) addEcho(idx int, serverSpec plexus.HostSpec, sample bool) (*plexus.Stack, error) {
	clientSpec := serverSpec
	clientSpec.Name = "client-" + serverSpec.Name
	n, client, server, err := plexus.TwoHosts(1, netdev.EthernetModel(), clientSpec, serverSpec)
	if err != nil {
		return nil, err
	}
	r.add(n)
	if err := startEcho(server); err != nil {
		return nil, err
	}
	msg := make([]byte, paperEchoBytes)
	var capp *plexus.UDPApp
	var sent sim.Time
	capp, err = client.OpenUDP(plexus.UDPAppOptions{}, func(t *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		t.Charge(client.Host.Costs.AppHandler)
		if r.rounds[idx] > 0 && sample { // round 0 is the warm-up
			r.rec.lat = append(r.rec.lat, t.Now()-sent)
		}
		r.rounds[idx]++
		if r.rounds[idx] <= paperEchoRounds {
			sent = t.Now()
			_ = capp.Send(t, server.Addr(), 7, msg)
		}
	})
	if err != nil {
		return nil, err
	}
	client.Spawn("client", func(t *sim.Task) {
		sent = t.Now()
		_ = capp.Send(t, server.Addr(), 7, msg)
	})
	r.verify = append(r.verify, func(check func(string, bool)) {
		check("rebuilt echo on "+serverSpec.Name+" completed every round", r.rounds[idx] == paperEchoRounds+1)
	})
	return server, nil
}

// addForward rebuilds one Figure 7 forwarder with a single echoed request.
func (r *paperRigs) addForward(kernel bool) error {
	fwdP := osmodel.Monolithic
	if kernel {
		fwdP = osmodel.SPIN
	}
	n, err := plexus.NewNetwork(1, netdev.EthernetModel(), []plexus.HostSpec{
		{Name: "fclient", Personality: osmodel.SPIN},
		{Name: "fwd", Personality: fwdP},
		{Name: "fserver", Personality: osmodel.SPIN},
	})
	if err != nil {
		return err
	}
	n.PrimeARP()
	r.add(n)
	client, fwd, server := n.Hosts[0], n.Hosts[1], n.Hosts[2]
	_, err = server.ListenTCP(9000, plexus.TCPAppOptions{
		OnRecv:    func(t *sim.Task, conn *plexus.TCPApp, data []byte) { _ = conn.Send(t, data) },
		OnPeerFin: func(t *sim.Task, conn *plexus.TCPApp) { conn.Close(t) },
	}, nil)
	if err != nil {
		return err
	}
	var flows func() uint64
	if kernel {
		k, err := forward.NewKernel(fwd, view.IPProtoTCP, 8000, server.Addr(), 9000)
		if err != nil {
			return err
		}
		flows = func() uint64 { return k.Stats().FlowsCreated }
	} else {
		s, err := forward.NewSplice(fwd, 8000, server.Addr(), 9000)
		if err != nil {
			return err
		}
		flows = func() uint64 { return s.Stats().Accepted }
	}
	req := make([]byte, 512)
	fillPattern(req, 1, 7)
	var got []byte
	client.Spawn("client", func(t *sim.Task) {
		r.w.connsOpened++
		_, _ = client.ConnectTCP(t, fwd.Addr(), 8000, plexus.TCPAppOptions{
			OnEstablished: func(t2 *sim.Task, conn *plexus.TCPApp) { _ = conn.Send(t2, req) },
			OnRecv: func(t2 *sim.Task, conn *plexus.TCPApp, data []byte) {
				got = append(got, data...)
				if len(got) >= len(req) {
					conn.Close(t2)
				}
			},
		})
	})
	r.verify = append(r.verify, func(check func(string, bool)) {
		name := "rebuilt splice forwarder"
		if kernel {
			name = "rebuilt in-kernel forwarder"
		}
		check(name+" echoed the request intact", string(got) == string(req) && flows() == 1)
		r.w.extra["forward.spliced"] += float64(flows())
	})
	return nil
}

// addVideo streams one second of one video stream on the T3 model.
func (r *paperRigs) addVideo() error {
	n, err := plexus.NewNetwork(1, netdev.DECT3Model(), []plexus.HostSpec{
		{Name: "vserver", Personality: osmodel.SPIN}, {Name: "vclient", Personality: osmodel.SPIN}})
	if err != nil {
		return err
	}
	n.PrimeARP()
	r.add(n)
	srv, err := video.NewServer(n.Hosts[0], video.ServerConfig{})
	if err != nil {
		return err
	}
	cl, err := video.NewClient(n.Hosts[1], video.DefaultPort)
	if err != nil {
		return err
	}
	srv.AddStream(view.IP4{224, 0, 1, 1})
	srv.Run(sim.Second)
	r.verify = append(r.verify, func(check func(string, bool)) {
		ss, cs := srv.Stats(), cl.Stats()
		check("video client displayed every frame sent", ss.FramesSent > 0 && cs.FramesRcvd == ss.FramesSent && cs.ChecksumErrors == 0)
		r.w.extra["video.frames_displayed"] = float64(cs.FramesRcvd)
	})
	return nil
}

// addSeqpkt installs SPP on two hosts and streams datagrams through 25 %
// loss, with the SPP conformance checker attached.
func (r *paperRigs) addSeqpkt() error {
	n, a, b, err := plexus.TwoHosts(1, netdev.EthernetModel(), SpinHost("spp-a"), SpinHost("spp-b"))
	if err != nil {
		return err
	}
	r.add(n)
	install := func(st *plexus.Stack) (*seqpkt.Manager, error) {
		m, err := seqpkt.Install(seqpkt.Config{
			Sim: st.Host.Sim, IP: st.IP, Disp: st.Host.Disp, Raise: st.Raiser(), CPU: st.Host.CPU,
			Pool: st.Host.Pool, Costs: st.Host.Costs, RequireEphemeral: st.InterruptMode()})
		if err != nil {
			return nil, err
		}
		ck := audit.NewSPPChecker(nil)
		m.SetAuditSink(ck)
		r.w.spp = append(r.w.spp, ck)
		return m, nil
	}
	ma, err := install(a)
	if err != nil {
		return err
	}
	mb, err := install(b)
	if err != nil {
		return err
	}
	fault.Attach(n.Sim, n.Link).Lose(&fault.EveryNth{N: 4})
	const msgs = 30
	delivered, inOrder := 0, true
	if _, err := mb.Open(40, func(t *sim.Task, seq uint32, data []byte, src view.IP4, srcPort uint16) {
		delivered++
		inOrder = inOrder && int(seq) == delivered && len(data) == 512
	}); err != nil {
		return err
	}
	tx, err := ma.Open(41, nil)
	if err != nil {
		return err
	}
	payload := make([]byte, 512)
	for i := 0; i < msgs; i++ {
		a.SpawnAt(sim.Time(i)*5*sim.Millisecond, "spp-send", func(t *sim.Task) {
			_, _ = tx.Send(t, b.Addr(), 40, payload)
		})
	}
	r.verify = append(r.verify, func(check func(string, bool)) {
		check("spp delivered every datagram once, in order, through loss", delivered == msgs && inOrder)
		r.w.extra["seqpkt.delivered"] = float64(delivered)
	})
	return nil
}

// addActiveMsg fires a chain of active-message requests at a remote handler.
func (r *paperRigs) addActiveMsg() error {
	n, a, b, err := plexus.TwoHosts(1, netdev.EthernetModel(), SpinHost("am-a"), SpinHost("am-b"))
	if err != nil {
		return err
	}
	r.add(n)
	amA, err := activemsg.New(a.Ether, a.Host.Pool, a.Host.Costs, 200*sim.Microsecond)
	if err != nil {
		return err
	}
	amB, err := activemsg.New(b.Ether, b.Host.Pool, b.Host.Costs, 200*sim.Microsecond)
	if err != nil {
		return err
	}
	var counter uint32
	if err := amB.Register(0, func(t *sim.Task, seq uint16, arg uint32, payload []byte) uint32 {
		counter += arg
		return counter
	}); err != nil {
		return err
	}
	const calls = 20
	var last uint32
	amA.OnReply(func(t *sim.Task, seq uint16, arg uint32) {
		last = arg
		if seq < calls {
			_, _ = amA.Send(t, b.NIC.MAC(), 0, 10, nil)
		}
	})
	a.Spawn("am-kick", func(t *sim.Task) { _, _ = amA.Send(t, b.NIC.MAC(), 0, 10, nil) })
	r.verify = append(r.verify, func(check func(string, bool)) {
		st := amB.Stats()
		check("active-message handler ran once per request", st.RequestsRcvd == calls && last == 10*calls)
		r.w.extra["activemsg.invoked"] = float64(st.RequestsRcvd)
	})
	return nil
}

func buildPaperRigs(p Params, rec *recorder) (*paperRigs, error) {
	r := &paperRigs{w: &world{extra: map[string]float64{}}, rec: rec}
	// Only the Plexus echo's round trips are the workload's latency samples
	// and its server the "server CPU"; the DIGITAL UNIX one runs beside it
	// for the simulated-CPU split.
	server, err := r.addEcho(0, SpinHost("server"), true)
	if err != nil {
		return nil, err
	}
	if _, err := r.addEcho(1, plexus.HostSpec{Name: DuxServer, Personality: osmodel.Monolithic}, false); err != nil {
		return nil, err
	}
	r.w.servers = []*plexus.Stack{server}
	for _, add := range []func() error{
		func() error { return r.addForward(true) }, func() error { return r.addForward(false) },
		r.addVideo, r.addSeqpkt, r.addActiveMsg,
	} {
		if err := add(); err != nil {
			return nil, err
		}
	}
	if p.Sink != nil {
		r.w.attachAudit()
	}
	return r, nil
}

// DuxServer names the rebuilt DIGITAL UNIX echo server, whose simulated CPU
// split is reported beside the Plexus server's.
const DuxServer = "dux-server"

func runPaperSuite(p Params) (*Result, error) {
	bench.SetParallelism(1)
	var rec *recorder
	rigs, setup, err := timedSetup(64, func() (*paperRigs, error) {
		rec = newRecorder(paperEchoRounds)
		return buildPaperRigs(p, rec)
	})
	if err != nil {
		return nil, err
	}
	w := rigs.w
	w.install(p.Sink)
	check := func(name string, ok bool) {
		if ok {
			rec.ok++
			rec.hash = hashBytes(rec.hash, []byte(name))
		} else {
			rec.fail("paper check failed: %s", name)
		}
	}
	run := measured{w: w, rec: rec, setup: setup, cpuOps: paperEchoRounds + 1}
	run.begin()
	bench.ResetEventCount()
	var ours []float64
	if run.goodput, err = paperChecks(p.Size, check, &ours); err != nil {
		return nil, fmt.Errorf("paper-suite: %w", err)
	}
	for _, n := range rigs.nets {
		n.Sim.RunUntil(90 * sim.Second)
	}
	run.end()

	var devMax, devSum float64
	for i, a := range anchors {
		dev := math.Abs(ours[i]-a.paper) / a.paper * 100
		check(fmt.Sprintf("%s: ours %.4g, deviation within %.1f%%", a.name, ours[i], a.maxDev), dev <= a.maxDev)
		devMax = math.Max(devMax, dev)
		devSum += dev
		rec.hash = mix(rec.hash, math.Float64bits(ours[i]))
	}
	for _, v := range rigs.verify {
		v(check)
	}
	w.extra["paper_dev_max_pct"] = devMax
	w.extra["paper_dev_mean_pct"] = devSum / float64(len(anchors))
	w.extra["sim.bench_events"] = float64(bench.EventCount())
	w.extra["paper.echo_rounds"] = float64(paperEchoRounds + 1)
	return run.result(nil)
}

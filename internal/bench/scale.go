package bench

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"runtime/debug"

	"plexus/internal/httpx"
	"plexus/internal/netdev"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// This file implements the `-exp scale` experiment in two regimes:
//
//   - Client cells: N concurrent clients against one server over the
//     switched fabric, on both measured systems — the load test the paper's
//     two-machine numbers cannot answer. Cells beyond one subnet's worth of
//     clients split across two switched segments joined by the gateway.
//
//   - Host cells: N ∈ {1k, 10k, 50k} hosts spread over many switched
//     segments (one server plus its clients per segment), built on the
//     sharded engine (plexus.NewShardedTopology): one event queue per
//     segment plus one for the gateway, advancing in lookahead windows on
//     -shards worker goroutines. Most traffic is segment-local; each
//     segment also runs one paced cross-segment client through the gateway
//     so the shard boundaries carry real load. Rows are byte-identical at
//     any -shards and any -parallel setting.
//
// Each cell reports completed ops, goodput, server CPU, p50/p99 latency,
// retries, switch drops, receiver frame errors, and its deterministic
// fired-event count; client losses are recovered by retry timers so drops
// cost latency rather than truncating the op count.

// Scale-experiment parameters.
const (
	// scaleEchoPayload is the UDP echo message size.
	scaleEchoPayload = 32
	// scaleRetryAfter rearms a client whose echo was tail-dropped.
	scaleRetryAfter = 25 * sim.Millisecond
	// scaleSegmentClients caps clients per subnet (a /24 minus the server,
	// the gateway, and headroom); larger populations split across two
	// switched segments joined by the gateway.
	scaleSegmentClients = 200
	// scaleHostsPerSegment sizes host cells: each switched segment holds
	// one server, one cross-segment client, and local echo clients.
	scaleHostsPerSegment = 200
	// scaleCrossInterval paces each segment's cross-segment client: one
	// echo through the gateway per interval. Pacing (instead of a closed
	// loop) keeps the single gateway CPU from saturating at hundreds of
	// segments while still pushing every boundary each window.
	scaleCrossInterval = 100 * sim.Millisecond
	// scaleLocalInterval paces each local client in a host cell. 198
	// clients per interval put the segment server around 70% utilization —
	// loaded but not collapsed, so the rows report latency under load
	// rather than queueing pathology. Client start times are staggered
	// across the interval so offered load (and the event stream each shard
	// round handles) is smooth.
	scaleLocalInterval = 50 * sim.Millisecond
	// scaleHostBudget fixes each sharded host cell's simulated work,
	// in host·seconds: 1k hosts run 40s, 10k run 4s, 50k run 800ms. Every
	// cell fires the same ~7.2M events, so rows at different scales report
	// the same amount of steady-state work and topology construction stays
	// a bounded fraction of each cell's wall clock.
	scaleHostBudget = 40000
)

// scaleHostDuration is the simulated length of a sharded host cell under
// the fixed scaleHostBudget.
func scaleHostDuration(hosts int) sim.Time {
	return sim.Time(scaleHostBudget) * sim.Second / sim.Time(hosts)
}

// scaleUplinkModel is the host cells' segment-to-gateway wire: Ethernet
// framing and rate over long-haul fiber. The propagation delay is also the
// engine's synchronization lookahead, so each shard advances in ~10ms
// windows: at 10k+ hosts the shards' combined working set overflows the
// cache, and a wide window is what amortizes each shard's refill over
// hundreds of events per visit instead of dozens.
func scaleUplinkModel() netdev.Model {
	m := netdev.EthernetModel()
	m.Name = "ethernet-uplink"
	m.PropDelay = 10 * sim.Millisecond
	return m
}

// Workloads of the scale sweep.
const (
	WorkloadUDPEcho = "udp-echo"
	WorkloadHTTPGet = "http-get"
)

// ScaleRow is one cell of the `-exp scale` sweep.
type ScaleRow struct {
	Clients  int    `json:"clients"`
	System   System `json:"system"`
	Workload string `json:"workload"`
	// Hosts is the topology size of a sharded host cell (0 for the classic
	// client cells).
	Hosts int `json:"hosts,omitempty"`
	// Segments is the number of subnets the clients were spread over.
	Segments int `json:"segments"`
	// Ops counts completed operations (echo round trips, or HTTP responses).
	Ops uint64 `json:"ops"`
	// GoodputMbps is application payload delivered to clients per second.
	GoodputMbps float64 `json:"goodput_mbps"`
	// ServerCPU is the server's CPU utilization over the run (averaged
	// across segment servers in host cells).
	ServerCPU float64  `json:"server_cpu"`
	P50       sim.Time `json:"p50_ns"`
	P99       sim.Time `json:"p99_ns"`
	// Retries counts client retry-timer firings (lost or late operations).
	Retries uint64 `json:"retries"`
	// SwitchDrops sums output-queue tail drops across the fabric.
	SwitchDrops uint64 `json:"switch_drops"`
	// RxErrors counts malformed frames at the server NIC(s).
	RxErrors uint64 `json:"rx_errors"`
	// Events is the cell's deterministic fired-event count, summed across
	// shards — the number the CI determinism diffs pin hardest.
	Events uint64 `json:"events"`
}

// Scale runs the sweep: classic client cells (clientCounts × workload ×
// system) plus sharded host cells (hostCounts × system, UDP echo), each cell
// on its own seeded simulator(s). Rows are byte-identical at any -parallel
// and any -shards setting.
func Scale(clientCounts, hostCounts []int, duration sim.Time) ([]ScaleRow, error) {
	type cell struct {
		clients  int
		hosts    int
		workload string
		sys      System
	}
	var cells []cell
	for _, n := range clientCounts {
		for _, wl := range []string{WorkloadUDPEcho, WorkloadHTTPGet} {
			for _, sys := range []System{SysPlexusInterrupt, SysDUX} {
				cells = append(cells, cell{clients: n, workload: wl, sys: sys})
			}
		}
	}
	// Host cells measure the sharded engine, not the OS comparison (the
	// classic cells already run both systems), so they build Plexus hosts
	// only and run the fixed scaleHostBudget regardless of duration.
	for _, n := range hostCounts {
		cells = append(cells, cell{hosts: n, workload: WorkloadUDPEcho, sys: SysPlexusInterrupt})
	}
	return RunCells(cells, func(c cell) (ScaleRow, error) {
		if c.hosts > 0 {
			row, err := scaleHostCell(c.sys, c.hosts, scaleHostDuration(c.hosts))
			if err != nil {
				return ScaleRow{}, fmt.Errorf("scale %s/%dh: %w", c.sys, c.hosts, err)
			}
			return row, nil
		}
		row, err := scaleCell(c.sys, c.workload, c.clients, duration)
		if err != nil {
			return ScaleRow{}, fmt.Errorf("scale %s/%s/%d: %w", c.sys, c.workload, c.clients, err)
		}
		return row, nil
	})
}

// scaleTopology builds the cell's fabric: the server plus clients on one
// switched segment, or — past one subnet's worth — split over two switched
// segments joined by the gateway. Returns the server and the client stacks.
func scaleTopology(sys System, clients int) (*plexus.Topology, *plexus.Stack, []*plexus.Stack, error) {
	clientSpec := func(i int) plexus.HostSpec {
		return hostSpec(fmt.Sprintf("c%03d", i), SysPlexusInterrupt)
	}
	segs := []plexus.SegmentSpec{{
		Name: "lan0", Model: netdev.EthernetModel(), Switched: true,
		Subnet: view.IP4{10, 0, 1, 0},
		Hosts:  []plexus.HostSpec{hostSpec("server", sys)},
	}}
	var gw *plexus.HostSpec
	near := clients
	if clients > scaleSegmentClients {
		near = clients / 2
		g := hostSpec("gw", SysPlexusInterrupt)
		gw = &g
		segs = append(segs, plexus.SegmentSpec{
			Name: "lan1", Model: netdev.EthernetModel(), Switched: true,
			Subnet: view.IP4{10, 0, 2, 0},
		})
	}
	for i := 0; i < clients; i++ {
		seg := 0
		if i >= near {
			seg = 1
		}
		segs[seg].Hosts = append(segs[seg].Hosts, clientSpec(i))
	}
	top, err := plexus.NewTopology(1, gw, segs)
	if err != nil {
		return nil, nil, nil, err
	}
	top.PrimeARP()
	server := top.Segments[0].Hosts[0]
	var cs []*plexus.Stack
	for si, seg := range top.Segments {
		hosts := seg.Hosts
		if si == 0 {
			hosts = hosts[1:] // skip the server
		}
		cs = append(cs, hosts...)
	}
	return top, server, cs, nil
}

// tally is one client's accounting of its completed operations.
type tally struct {
	ops     uint64
	retries uint64
	bytes   uint64
	rtts    []sim.Time
}

// fold sums clients' tallies, pooling their RTTs in client order, and
// reduces the pool to its percentiles.
func fold(ts []*tally) (tally, rttSummary) {
	var all tally
	for _, t := range ts {
		all.ops += t.ops
		all.retries += t.retries
		all.bytes += t.bytes
		all.rtts = append(all.rtts, t.rtts...)
	}
	return all, summarize(all.rtts)
}

// mbps is the tallied payload as goodput over duration.
func (t *tally) mbps(duration sim.Time) float64 {
	return float64(t.bytes) * 8 / duration.Seconds() / 1e6
}

// echoClient is one closed-loop UDP echo client with loss recovery: a reply
// matching the outstanding sequence number completes the op and sends the
// next; a retry timer re-sends the same op (keeping its original start time,
// so recovered losses land in the tail percentiles, not off the books).
//
// The whole client is allocation-free in steady state: the retry timer and
// its re-send task are package-level functions scheduled with the pooled
// AfterArg/SubmitAtArg forms, and staleness is detected by comparing the
// armed sequence number instead of capturing it in a closure.
type echoClient struct {
	st       *plexus.Stack
	app      *plexus.UDPApp
	server   view.IP4
	duration sim.Time

	seq      uint64
	armedSeq uint64 // seq the retry timer was armed for
	sentAt   sim.Time
	timer    sim.Timer
	msg      []byte

	tally
}

func (c *echoClient) send(t *sim.Task) {
	if t.Now() >= c.duration {
		return
	}
	c.seq++
	binary.BigEndian.PutUint64(c.msg, c.seq)
	c.sentAt = t.Now()
	c.transmit(t)
}

func (c *echoClient) transmit(t *sim.Task) {
	_ = c.app.Send(t, c.server, 7, c.msg)
	c.armedSeq = c.seq
	c.timer = c.st.Host.Sim.AfterArg(scaleRetryAfter, "echo-retry", echoRetryTimer, c)
}

// echoRetryTimer fires when an echo went unanswered for scaleRetryAfter; a
// stale firing (the op completed and a new one is outstanding) is detected
// by the armed-sequence check. Package-level so arming allocates nothing.
func echoRetryTimer(a any) {
	c := a.(*echoClient)
	s := c.st.Host.Sim
	if c.seq != c.armedSeq || s.Now() >= c.duration {
		return
	}
	c.retries++
	c.st.Host.CPU.SubmitAtArg(s.Now(), sim.PrioKernel, "echo-retry", echoRetryTask, c)
}

func echoRetryTask(t *sim.Task, a any) { a.(*echoClient).transmit(t) }

func (c *echoClient) onReply(t *sim.Task, data []byte) {
	t.Charge(c.st.Host.Costs.AppHandler)
	if len(data) < 8 || binary.BigEndian.Uint64(data) != c.seq {
		return // stale duplicate from a retry race
	}
	c.timer.Stop()
	c.rtts = append(c.rtts, t.Now()-c.sentAt)
	c.ops++
	c.bytes += uint64(len(data))
	c.send(t)
}

// pacedClient is one open-loop echo client: an echo every interval, with a
// reply deadline of one interval (an unanswered op counts a retry and the
// next op is sent). Host cells run one per local host against the segment
// server, and one per segment across the gateway. Like echoClient, its
// timer/task plumbing is allocation-free.
type pacedClient struct {
	st       *plexus.Stack
	app      *plexus.UDPApp
	server   view.IP4
	interval sim.Time
	duration sim.Time

	seq         uint64
	sentAt      sim.Time
	outstanding bool
	msg         []byte

	tally
}

// pacedTick is the interval timer: submit the next send (or the timeout
// retry) onto the client's CPU.
func pacedTick(a any) {
	c := a.(*pacedClient)
	s := c.st.Host.Sim
	if s.Now() >= c.duration {
		return
	}
	c.st.Host.CPU.SubmitAtArg(s.Now(), sim.PrioKernel, "paced-echo", pacedSendTask, c)
}

func pacedSendTask(t *sim.Task, a any) {
	c := a.(*pacedClient)
	if c.outstanding {
		c.retries++ // previous op unanswered within the interval
	}
	c.seq++
	binary.BigEndian.PutUint64(c.msg, c.seq)
	c.sentAt = t.Now()
	c.outstanding = true
	_ = c.app.Send(t, c.server, 7, c.msg)
	c.st.Host.Sim.AfterArg(c.interval, "paced-tick", pacedTick, c)
}

func (c *pacedClient) onReply(t *sim.Task, data []byte) {
	t.Charge(c.st.Host.Costs.AppHandler)
	if !c.outstanding || len(data) < 8 || binary.BigEndian.Uint64(data) != c.seq {
		return
	}
	c.outstanding = false
	c.rtts = append(c.rtts, t.Now()-c.sentAt)
	c.ops++
	c.bytes += uint64(len(data))
}

// startPaced opens a UDP endpoint on cl and starts a paced client echoing
// payload bytes off server port 7: the first op at offset, then one every
// interval until duration, its RTT log sized for every op.
func startPaced(cl *plexus.Stack, server view.IP4, payload int, interval, offset, duration sim.Time) (*pacedClient, error) {
	pc := &pacedClient{st: cl, server: server, interval: interval, duration: duration, msg: make([]byte, payload)}
	pc.rtts = make([]sim.Time, 0, int(duration/interval)+2)
	var err error
	pc.app, err = cl.OpenUDP(plexus.UDPAppOptions{}, func(t *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		pc.onReply(t, data)
	})
	if err != nil {
		return nil, err
	}
	cl.Host.Sim.AtArg(offset, "paced-tick", pacedTick, pc)
	return pc, nil
}

// startEchoServer opens the UDP echo service on port 7.
func startEchoServer(server *plexus.Stack) error {
	var echo *plexus.UDPApp
	var err error
	echo, err = server.OpenUDP(plexus.UDPAppOptions{Port: 7}, func(t *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		t.Charge(server.Host.Costs.AppHandler)
		_ = echo.Send(t, src, srcPort, data)
	})
	return err
}

// buildHostCell builds a sharded host cell: k switched segments of perSeg
// hosts joined through the gateway on the scale uplink. Host 0 of each
// segment serves echo; host 1 paces cross-segment ops through the gateway at
// the next segment's server, so every op crosses two shard boundaries; the
// rest echo off the local server every interval, start times staggered
// across it so the offered load — and the event stream each shard round
// handles — is smooth. It returns the clients' tallies.
func buildHostCell(sys System, k, perSeg int, interval, duration sim.Time) (*plexus.ShardedTopology, []*tally, error) {
	segs := make([]plexus.SegmentSpec, k)
	for i := range segs {
		segs[i] = plexus.SegmentSpec{
			Name: fmt.Sprintf("seg%03d", i), Model: netdev.EthernetModel(), Switched: true,
			Uplink: scaleUplinkModel(),
			Subnet: view.IP4{10, byte((i + 1) >> 8), byte(i + 1), 0},
			Hosts:  []plexus.HostSpec{hostSpec(fmt.Sprintf("s%03d", i), sys)},
		}
		for c := 1; c < perSeg; c++ {
			segs[i].Hosts = append(segs[i].Hosts, hostSpec(fmt.Sprintf("h%03d-%03d", i, c), SysPlexusInterrupt))
		}
	}
	gw := hostSpec("gw", SysPlexusInterrupt)
	top, err := plexus.NewShardedTopology(1, &gw, segs)
	if err != nil {
		return nil, nil, err
	}
	top.PrimeARPSparse()
	for _, seg := range top.Segments {
		if err := startEchoServer(seg.Hosts[0]); err != nil {
			return nil, nil, err
		}
	}
	var ts []*tally
	start := func(cl *plexus.Stack, server view.IP4, interval, offset sim.Time) error {
		pc, err := startPaced(cl, server, scaleEchoPayload, interval, offset, duration)
		if err == nil {
			ts = append(ts, &pc.tally)
		}
		return err
	}
	for si, seg := range top.Segments {
		remote := top.Segments[(si+1)%k].Hosts[0]
		if err := start(seg.Hosts[1], remote.Addr(), scaleCrossInterval, 0); err != nil {
			return nil, nil, err
		}
		nLocal := len(seg.Hosts) - 2
		for ci, cl := range seg.Hosts[2:] {
			if err := start(cl, seg.Hosts[0].Addr(), interval, interval*sim.Time(ci)/sim.Time(nLocal)); err != nil {
				return nil, nil, err
			}
		}
	}
	return top, ts, nil
}

// scaleHostCell runs one sharded host cell of hosts/scaleHostsPerSegment
// segments. The engine advances every segment concurrently on
// ShardWorkers() goroutines.
func scaleHostCell(sys System, hosts int, duration sim.Time) (ScaleRow, error) {
	k := hosts / scaleHostsPerSegment
	if k < 2 {
		return ScaleRow{}, fmt.Errorf("host cell needs >= %d hosts", 2*scaleHostsPerSegment)
	}
	// Building a 50k-host topology allocates hundreds of MB of scaffolding;
	// with the collector on, the concurrent mark re-scans the growing heap
	// and its tail cycles spill into the measured run. Build with GC off,
	// collect the construction garbage once, then restore: the steady-state
	// run allocates nothing, so no further cycle triggers mid-measurement.
	// This only shifts wall-clock — simulated results never depend on it.
	gcPct := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPct)
	top, ts, err := buildHostCell(sys, k, scaleHostsPerSegment, scaleLocalInterval, duration)
	if err != nil {
		return ScaleRow{}, err
	}
	defer func() {
		for _, s := range top.Sims {
			recordEvents(s)
		}
	}()
	runtime.GC() // sweep the construction garbage, then re-arm the collector
	debug.SetGCPercent(gcPct)
	top.Run(duration, ShardWorkers())

	all, rtt := fold(ts)
	row := ScaleRow{System: sys, Workload: WorkloadUDPEcho, Hosts: hosts, Segments: k, Clients: len(ts),
		Ops: all.ops, Retries: all.retries, GoodputMbps: all.mbps(duration), P50: rtt.P50, P99: rtt.P99}
	for _, seg := range top.Segments {
		row.ServerCPU += seg.Hosts[0].Host.CPU.Utilization()
		row.SwitchDrops += seg.Switch.QueueDrops()
		row.RxErrors += seg.Hosts[0].NIC.Stats().RxErrors
	}
	row.ServerCPU /= float64(k)
	row.Events = top.Executed()
	if row.Ops == 0 {
		return ScaleRow{}, fmt.Errorf("no operations completed")
	}
	return row, nil
}

// scaleCell runs one classic (system, workload, clients) configuration.
func scaleCell(sys System, workload string, clients int, duration sim.Time) (ScaleRow, error) {
	top, server, cs, err := scaleTopology(sys, clients)
	if err != nil {
		return ScaleRow{}, err
	}
	defer recordEvents(top.Sim)
	row := ScaleRow{Clients: clients, System: sys, Workload: workload, Segments: len(top.Segments)}

	var ts []*tally
	switch workload {
	case WorkloadUDPEcho:
		if err := startEchoServer(server); err != nil {
			return ScaleRow{}, err
		}
		for _, cl := range cs {
			ec := &echoClient{st: cl, server: server.Addr(), duration: duration,
				msg: make([]byte, scaleEchoPayload)}
			ec.app, err = cl.OpenUDP(plexus.UDPAppOptions{}, func(t *sim.Task, data []byte, src view.IP4, srcPort uint16) {
				ec.onReply(t, data)
			})
			if err != nil {
				return ScaleRow{}, err
			}
			ts = append(ts, &ec.tally)
			cl.Spawn("echo-start", ec.send)
		}
	case WorkloadHTTPGet:
		if err := serveHTTP(server); err != nil {
			return ScaleRow{}, err
		}
		for _, cl := range cs {
			tl := &tally{}
			var issue func(t *sim.Task)
			issue = func(t *sim.Task) {
				if t.Now() >= duration {
					return
				}
				started := t.Now()
				err := httpx.Get(t, cl, server.Addr(), 80, "/", func(t2 *sim.Task, r httpx.Result, err error) {
					if err == nil && r.Status == 200 {
						tl.rtts = append(tl.rtts, t2.Now()-started)
						tl.ops++
						tl.bytes += uint64(len(r.Body))
					} else {
						tl.retries++
					}
					issue(t2)
				})
				if err != nil {
					tl.retries++
				}
			}
			ts = append(ts, tl)
			cl.Spawn("http-start", issue)
		}
	default:
		return ScaleRow{}, fmt.Errorf("unknown workload %q", workload)
	}

	top.Sim.RunUntil(duration)

	all, rtt := fold(ts)
	row.Ops, row.Retries, row.GoodputMbps, row.P50, row.P99 = all.ops, all.retries, all.mbps(duration), rtt.P50, rtt.P99
	row.ServerCPU = server.Host.CPU.Utilization()
	for _, seg := range top.Segments {
		if seg.Switch != nil {
			row.SwitchDrops += seg.Switch.QueueDrops()
		}
	}
	row.RxErrors = server.NIC.Stats().RxErrors
	row.Events = top.Sim.Executed()
	if row.Ops == 0 {
		return ScaleRow{}, fmt.Errorf("no operations completed")
	}
	return row, nil
}

package workload

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// udp-echo-1k sizes. The topology is the 1k-host cell of `-exp scale`: five
// switched 200-host segments behind 10 ms uplinks to one gateway, one shard
// per segment. At Size 1 a repetition simulates echoSimTime and fires about
// 2.1 M events.
const (
	echoSegments     = 5
	echoHostsPerSeg  = 200
	echoPayload      = 32
	echoLocalEvery   = 50 * sim.Millisecond
	echoCrossEvery   = 100 * sim.Millisecond
	echoLocalTimeout = 25 * sim.Millisecond
	echoCrossTimeout = 100 * sim.Millisecond // two 10 ms uplinks each way
	echoSimTime      = 12 * sim.Second
	echoDrain        = 120 * sim.Millisecond
	// echoSlots bounds a client's outstanding requests: sixteen send
	// intervals outlast every deadline the workloads set, so a slot is never
	// reused while its request can still be answered in time.
	echoSlots = 16
)

// SpinHost is a Plexus host with interrupt-level dispatch, the configuration
// every workload and probe runs unless it says otherwise.
func SpinHost(name string) plexus.HostSpec {
	return plexus.HostSpec{Name: name, Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt}
}

// echoClient is one open-loop UDP echo client: a request every interval
// whether or not the last one was answered, each timed from the instant it
// was due. The send path allocates nothing (package-level timer and task
// functions, pooled scheduling forms).
type echoClient struct {
	st       *plexus.Stack
	app      *plexus.UDPApp
	server   view.IP4
	port     *netdev.Port // the server's switch port, sampled at completions
	interval sim.Time
	timeout  sim.Time
	stop     sim.Time
	key      uint64

	seq    uint64
	due    sim.Time
	dueAt  [echoSlots]sim.Time // due time per outstanding seq; -1 = answered
	msg    []byte
	expect []byte

	sent    uint64
	settled uint64 // requests a reply verified or failed
	rec     *recorder
	w       *world
}

func newEchoClient(st *plexus.Stack, server view.IP4, port *netdev.Port, interval, timeout, stop sim.Time,
	payload int, key uint64, rec *recorder, w *world) *echoClient {
	c := &echoClient{st: st, server: server, port: port, interval: interval, timeout: timeout, stop: stop,
		key: key, msg: make([]byte, payload), expect: make([]byte, payload), rec: rec, w: w}
	for i := range c.dueAt {
		c.dueAt[i] = -1
	}
	return c
}

// open binds the client's UDP endpoint.
func (c *echoClient) open() error {
	var err error
	c.app, err = c.st.OpenUDP(plexus.UDPAppOptions{}, func(t *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		c.onReply(t, data)
	})
	return err
}

// failUnanswered counts every request no reply settled as a failed op.
func failUnanswered(clients []*echoClient, rec *recorder) {
	for _, c := range clients {
		for lost := c.sent - c.settled; lost > 0; lost-- {
			rec.fail("%s: request unanswered", c.st.Name())
		}
	}
}

// fill writes request seq into b: the sequence number, then pattern words.
func (c *echoClient) fill(b []byte, seq uint64) {
	binary.BigEndian.PutUint64(b, seq)
	for i := 8; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], splitmix(c.key+seq*8+uint64(i)))
	}
}

func echoTick(a any) {
	c := a.(*echoClient)
	s := c.st.Host.Sim
	if s.Now() >= c.stop {
		return
	}
	c.due = s.Now()
	c.st.Host.CPU.SubmitAtArg(s.Now(), sim.PrioKernel, "echo-send", echoSendTask, c)
	s.AfterArg(c.interval, "echo-tick", echoTick, c)
}

func echoSendTask(t *sim.Task, a any) {
	c := a.(*echoClient)
	c.seq++
	c.sent++
	c.dueAt[c.seq%echoSlots] = c.due
	c.fill(c.msg, c.seq)
	_ = c.app.Send(t, c.server, 7, c.msg)
}

func (c *echoClient) onReply(t *sim.Task, data []byte) {
	t.Charge(c.st.Host.Costs.AppHandler)
	if len(data) != len(c.msg) {
		c.rec.fail("%s: reply of %d bytes", c.st.Name(), len(data))
		return
	}
	seq := binary.BigEndian.Uint64(data)
	if seq == 0 || seq > c.seq || seq+echoSlots <= c.seq || c.dueAt[seq%echoSlots] < 0 {
		return // duplicate or unknown: the op it belonged to is already settled
	}
	c.fill(c.expect, seq)
	lat := t.Now() - c.dueAt[seq%echoSlots]
	c.dueAt[seq%echoSlots] = -1
	c.settled++
	switch {
	case !bytes.Equal(data, c.expect):
		c.rec.fail("%s: reply %d differs from request", c.st.Name(), seq)
	case lat > c.timeout:
		c.rec.fail("%s: reply %d late by %v", c.st.Name(), seq, lat-c.timeout)
	default:
		c.rec.done(lat, len(data), binary.LittleEndian.Uint64(data[8:]))
	}
	c.w.sampleQueue(c.port, t.Now())
	c.w.samplePending(c.st.Host.Sim)
}

// startEcho opens the echo service on port 7.
func startEcho(server *plexus.Stack) error {
	var echo *plexus.UDPApp
	var err error
	echo, err = server.OpenUDP(plexus.UDPAppOptions{Port: 7}, func(t *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		t.Charge(server.Host.Costs.AppHandler)
		_ = echo.Send(t, src, srcPort, data)
	})
	return err
}

type echoRig struct {
	w       *world
	top     *plexus.ShardedTopology
	clients []*echoClient
}

func buildUDPEcho(p Params, rec *recorder, stop sim.Time) (*echoRig, error) {
	segs := make([]plexus.SegmentSpec, echoSegments)
	uplink := netdev.EthernetModel()
	uplink.Name = "ethernet-uplink"
	uplink.PropDelay = 10 * sim.Millisecond
	for i := range segs {
		spec := plexus.SegmentSpec{
			Name: fmt.Sprintf("seg%03d", i), Model: netdev.EthernetModel(), Switched: true,
			Uplink: uplink, Subnet: view.IP4{10, 0, byte(i + 1), 0},
		}
		spec.Hosts = append(spec.Hosts, SpinHost(fmt.Sprintf("s%03d", i)))
		for c := 1; c < echoHostsPerSeg; c++ {
			spec.Hosts = append(spec.Hosts, SpinHost(fmt.Sprintf("h%03d-%03d", i, c)))
		}
		segs[i] = spec
	}
	gw := SpinHost("gw")
	top, err := plexus.NewShardedTopology(p.Seed, &gw, segs)
	if err != nil {
		return nil, err
	}
	top.PrimeARPSparse()
	w := &world{sims: top.Sims, engine: top.Engine, gateway: top.Gateway}
	w.stacks = append(w.stacks, top.Gateway.Ifaces...)
	rig := &echoRig{w: w, top: top}
	start := func(cl *plexus.Stack, server *plexus.Stack, port *netdev.Port, interval, timeout, offset sim.Time) error {
		c := newEchoClient(cl, server.Addr(), port, interval, timeout, stop, echoPayload,
			splitmix(uint64(p.Seed))^splitmix(uint64(len(rig.clients))), rec, w)
		if err := c.open(); err != nil {
			return err
		}
		rig.clients = append(rig.clients, c)
		cl.Host.Sim.AtArg(offset, "echo-tick", echoTick, c)
		return nil
	}
	for si, seg := range top.Segments {
		server := seg.Hosts[0]
		if err := startEcho(server); err != nil {
			return nil, err
		}
		w.servers = append(w.servers, server)
		w.switches = append(w.switches, seg.Switch)
		w.stacks = append(w.stacks, seg.Hosts...)
		// Host 1 echoes off the next segment's server through the gateway;
		// the rest echo off the local server. The seed assigns the local
		// clients to evenly spaced send slots, so offered load is smooth on
		// every seed and only who sends when changes.
		remote := top.Segments[(si+1)%len(top.Segments)]
		if err := start(seg.Hosts[1], remote.Hosts[0], remote.Switch.Ports()[0], echoCrossEvery, echoCrossTimeout, 0); err != nil {
			return nil, err
		}
		locals := seg.Hosts[2:]
		slots := rand.New(rand.NewSource(p.Seed + int64(si))).Perm(len(locals))
		for ci, cl := range locals {
			offset := echoLocalEvery * sim.Time(slots[ci]) / sim.Time(len(locals))
			if err := start(cl, server, seg.Switch.Ports()[0], echoLocalEvery, echoLocalTimeout, offset); err != nil {
				return nil, err
			}
		}
	}
	return rig, nil
}

func runUDPEcho(p Params) (*Result, error) {
	stop := scaled(echoSimTime, p.Size, 200*sim.Millisecond)
	capOps := int(stop/echoLocalEvery+2) * echoSegments * echoHostsPerSeg
	var rec *recorder
	rig, setup, err := timedSetup(2, func() (*echoRig, error) {
		rec = newRecorder(capOps)
		return buildUDPEcho(p, rec, stop)
	})
	if err != nil {
		return nil, err
	}
	w := rig.w
	w.install(p.Sink)
	run := measured{w: w, rec: rec, setup: setup, window: stop + echoDrain}
	run.begin()
	rig.top.Run(stop+echoDrain, 1)
	run.end()
	failUnanswered(rig.clients, rec)
	res, err := run.result(nil)
	if err != nil {
		return nil, err
	}
	// With one worker a shard "waits" while the others take their turn, so
	// the share is near 1-1/shards; it is reported for the day the engine
	// runs shards in parallel inside the benchmark.
	var wait float64
	shards := rig.top.Engine.Shards()
	for _, sh := range shards {
		wait += rig.top.Engine.BarrierWait(sh).Seconds()
	}
	if total := rig.top.Engine.ParallelWall().Seconds() * float64(len(shards)); total > 0 {
		res.HostCounters = map[string]float64{"sim.barrier_wait_share": wait / total}
	}
	return res, nil
}

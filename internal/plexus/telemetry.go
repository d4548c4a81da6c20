package plexus

// Monitor helpers: one call attaches the standard whole-system probe set —
// link, mbuf pools, per-connection TCP, event-queue depth, and (sharded) the
// per-segment switches — to a telemetry engine and starts sampling. Probes
// attach in topology order, which is fixed at construction, so the engine's
// exports and digest are byte-identical at any -parallel or -shards setting.

import (
	"plexus/internal/sim"
	"plexus/internal/telemetry"
)

// poolCap is the cap the mbuf near-cap watchdog watches on every host pool.
// The simulated pool is unbounded, so the cap is the monitoring policy, not
// an enforcement limit.
const poolCap = 1 << 20

// MonitorOptions configures Monitor.
type MonitorOptions struct {
	// Telemetry configures the engine (zero value = 1ms interval).
	Telemetry telemetry.Options
	// TCPStallWindow arms the per-connection no-progress watchdog (0 = off).
	TCPStallWindow sim.Time
	// SwitchPinWindow arms the per-port queue-pinned watchdog on sharded
	// topologies (0 = off).
	SwitchPinWindow sim.Time
}

// Monitor attaches the standard probe set to every host in the network and
// starts sampling: the shared link, each host's mbuf pool and TCP
// connections, and the simulator's event-queue depth.
func (n *Network) Monitor(opts MonitorOptions) *telemetry.Engine {
	e := telemetry.New(n.Sim, opts.Telemetry)
	telemetry.AttachSimQueue(e, "net", n.Sim)
	telemetry.AttachLink(e, "link", n.Link)
	attachHosts(e, n.Hosts, opts)
	e.Start()
	return e
}

// Monitor attaches one telemetry engine per shard — each samples only state
// owned by its shard's simulator, so sampling adds no cross-shard traffic
// and stays race-free at any worker count — and starts them all. Engines
// come back in shard order: the gateway first, then one per segment.
func (top *ShardedTopology) Monitor(opts MonitorOptions) []*telemetry.Engine {
	engines := make([]*telemetry.Engine, 0, len(top.Sims))

	gw := telemetry.New(top.GatewaySim, opts.Telemetry)
	telemetry.AttachSimQueue(gw, "gw", top.GatewaySim)
	attachHosts(gw, top.Gateway.Ifaces, opts)
	gw.Start()
	engines = append(engines, gw)

	for si, seg := range top.Segments {
		e := telemetry.New(top.Sims[si+1], opts.Telemetry)
		telemetry.AttachSimQueue(e, seg.Name, top.Sims[si+1])
		telemetry.AttachSwitch(e, seg.Switch, opts.SwitchPinWindow)
		attachHosts(e, seg.Hosts, opts)
		e.Start()
		engines = append(engines, e)
	}
	return engines
}

// attachHosts attaches each host's mbuf pool and TCP connections to e, in
// order; the engine's digest depends on that order.
func attachHosts(e *telemetry.Engine, hosts []*Stack, opts MonitorOptions) {
	for _, h := range hosts {
		telemetry.AttachPool(e, h.Name(), h.Host.Pool, poolCap)
		telemetry.AttachTCP(e, h.TCP, telemetry.TCPOptions{StallWindow: opts.TCPStallWindow})
	}
}

// MergedDigest folds per-shard engine digests into one determinism witness,
// order-sensitively (shard order is fixed by the topology).
func MergedDigest(engines []*telemetry.Engine) uint64 {
	var d uint64 = 1469598103934665603 // FNV-1a offset basis
	for _, e := range engines {
		x := e.Digest()
		for i := 0; i < 8; i++ {
			d ^= x >> (8 * i) & 0xff
			d *= 1099511628211
		}
	}
	return d
}

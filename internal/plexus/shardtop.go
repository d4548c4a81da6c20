// Sharded topologies: the same machine room NewTopology builds, partitioned
// at the inter-segment link boundaries into one sim.Sim per segment plus one
// for the gateway, coordinated by a sim.Engine. Every segment's switch,
// hosts, mbuf pools, and event free lists are private to its shard; the only
// cross-shard traffic is the uplink between each segment's switch and the
// gateway's interface on that subnet, carried by a netdev.Boundary whose
// lookahead (minimum-frame serialization + propagation) sets the engine's
// barrier window.
//
// The partition is fixed by the topology — one shard per segment, plus the
// gateway — so the shard *worker* count is purely an execution knob: rows,
// event counts, and span counts are byte-identical at -shards 1 or N.
package plexus

import (
	"fmt"

	"plexus/internal/netdev"
	"plexus/internal/sim"
)

// ShardedTopology is a Topology partitioned across per-segment simulators.
type ShardedTopology struct {
	Engine *sim.Engine
	// GatewaySim owns the gateway's interface stacks and CPU (shard 0).
	GatewaySim *sim.Sim
	// Sims are all shard simulators: the gateway first, then one per
	// segment in spec order.
	Sims     []*sim.Sim
	Segments []*Segment
	Gateway  *Gateway
	// Boundaries are the uplink cables, one per segment in spec order.
	Boundaries []*netdev.Boundary
}

// NewShardedTopology builds segs as independent shards joined through gw.
// Every segment must be switched (a shared bus has no store-and-forward
// element to terminate the uplink) and joined by one gateway link, and at
// least two segments are required — a single segment has no boundary to
// shard at; use NewTopology.
func NewShardedTopology(seed int64, gw *HostSpec, segs []SegmentSpec) (*ShardedTopology, error) {
	if len(segs) < 2 {
		return nil, fmt.Errorf("plexus: sharded topology needs at least two segments")
	}
	if gw == nil {
		return nil, fmt.Errorf("plexus: sharded topology needs a gateway spec")
	}
	gwSim := sim.New(seed)
	top := &ShardedTopology{
		Engine:     sim.NewEngine(),
		GatewaySim: gwSim,
		Sims:       []*sim.Sim{gwSim},
		Gateway:    &Gateway{CPU: sim.NewCPU(gwSim, gw.Name)},
	}
	gwShard := top.Engine.AddShard(gwSim)
	for si := range segs {
		spec := &segs[si]
		if !spec.Switched {
			return nil, fmt.Errorf("plexus: segment %s: sharded topologies require switched segments", spec.Name)
		}
		if spec.GatewayLinks > 1 {
			return nil, fmt.Errorf("plexus: segment %s: sharded topologies build one gateway link per segment, not %d", spec.Name, spec.GatewayLinks)
		}
		segSim := sim.New(seed + 1 + int64(si))
		segSim.SetSpanBase(sim.SpanBase(si + 1))
		segShard := top.Engine.AddShard(segSim)
		top.Sims = append(top.Sims, segSim)
		seg := &Segment{}
		if err := seg.build(segSim, si, spec, 1); err != nil {
			return nil, err
		}

		// The uplink: gateway NIC on side A (gateway shard), switch port on
		// side B (segment shard). Each direction is an engine coupling
		// drained by the receiving shard.
		uplink := spec.Uplink
		if uplink == (netdev.Model{}) {
			uplink = spec.Model
		}
		bnd := netdev.NewBoundary(uplink)
		if err := top.Gateway.addIface(gwSim, gw, seg, si, 0, uplink, bnd.LinkA()); err != nil {
			return nil, err
		}
		seg.Switch.AttachLinkModel(bnd.LinkB(), uplink)
		seg.Cables = append(seg.Cables, bnd.LinkB())
		top.Engine.Connect(bnd.CouplingAB(), segShard)
		top.Engine.Connect(bnd.CouplingBA(), gwShard)
		top.Boundaries = append(top.Boundaries, bnd)
		top.Segments = append(top.Segments, seg)
	}
	top.Gateway.wire()
	return top, nil
}

// Run advances every shard to time until on workers goroutines.
func (top *ShardedTopology) Run(until sim.Time, workers int) {
	top.Engine.Run(until, workers)
}

// Executed sums fired events across all shards.
func (top *ShardedTopology) Executed() uint64 { return top.Engine.Executed() }

// PrimeARPSparse installs the static ARP entries the scale workloads need —
// O(hosts), not the O(hosts²) full mesh of PrimeARP: every host resolves its
// segment's gateway interface and its segment's server (host .1), the server
// resolves all its local clients, and the gateway resolves everyone it may
// forward to.
func (top *ShardedTopology) PrimeARPSparse() {
	for _, seg := range top.Segments {
		if len(seg.Hosts) == 0 {
			continue
		}
		server := seg.Hosts[0]
		for i, h := range seg.Hosts {
			h.ARP.AddStatic(seg.GW.Addr(), seg.GW.NIC.MAC())
			seg.GW.ARP.AddStatic(h.Addr(), h.NIC.MAC())
			if i > 0 {
				h.ARP.AddStatic(server.Addr(), server.NIC.MAC())
				server.ARP.AddStatic(h.Addr(), h.NIC.MAC())
			}
		}
		server.ARP.AddStatic(seg.GW.Addr(), seg.GW.NIC.MAC())
	}
}

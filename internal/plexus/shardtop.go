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
	"plexus/internal/view"
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
// element to terminate the uplink), and at least two segments are required —
// a single segment has no boundary to shard at; use NewTopology.
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
	for si, spec := range segs {
		if !spec.Switched {
			return nil, fmt.Errorf("plexus: segment %s: sharded topologies require switched segments", spec.Name)
		}
		if len(spec.Hosts) > gatewayHostByte-1 {
			return nil, fmt.Errorf("plexus: segment %s: %d hosts exceed a /24", spec.Name, len(spec.Hosts))
		}
		segSim := sim.New(seed + 1 + int64(si))
		segSim.SetSpanBase(sim.SpanBase(si + 1))
		segShard := top.Engine.AddShard(segSim)
		top.Sims = append(top.Sims, segSim)

		seg := &Segment{Name: spec.Name, Subnet: spec.Subnet}
		seg.Switch = netdev.NewSwitch(segSim, spec.Name+"/sw", spec.Model, spec.Switch)
		addr := func(host byte) view.IP4 {
			return view.IP4{spec.Subnet[0], spec.Subnet[1], spec.Subnet[2], host}
		}
		gwAddr := addr(gatewayHostByte)
		for i, hs := range spec.Hosts {
			idx := byte(i + 1)
			cable := netdev.NewLink(segSim, spec.Name+"/cable")
			seg.Switch.AttachLink(cable)
			seg.Cables = append(seg.Cables, cable)
			st, err := NewStack(segSim, hs.Name, StackConfig{
				Personality: hs.Personality,
				Dispatch:    hs.Dispatch,
				Model:       spec.Model,
				Link:        cable,
				MAC:         segMAC(si, idx),
				Addr:        addr(idx),
				Mask:        view.IP4{255, 255, 255, 0},
				Gateway:     gwAddr,
				Costs:       hs.Costs,
				Pool:        hs.Pool,
				Quarantine:  hs.Quarantine,
			})
			if err != nil {
				return nil, fmt.Errorf("plexus: host %s: %w", hs.Name, err)
			}
			seg.Hosts = append(seg.Hosts, st)
		}

		// The uplink: gateway NIC on side A (gateway shard), switch port on
		// side B (segment shard). Each direction is an engine coupling
		// drained by the receiving shard.
		uplink := spec.Uplink
		if uplink == (netdev.Model{}) {
			uplink = spec.Model
		}
		bnd := netdev.NewBoundary(gwSim, segSim, spec.Name+"/uplink", uplink)
		st, err := NewStack(gwSim, gw.Name+"/"+spec.Name, StackConfig{
			Personality: gw.Personality,
			Dispatch:    gw.Dispatch,
			Model:       uplink,
			Link:        bnd.LinkA(),
			MAC:         segMAC(si, gatewayHostByte),
			Addr:        gwAddr,
			Mask:        view.IP4{255, 255, 255, 0},
			Costs:       gw.Costs,
			CPU:         top.Gateway.CPU,
		})
		if err != nil {
			return nil, fmt.Errorf("plexus: gateway on %s: %w", spec.Name, err)
		}
		seg.Switch.AttachLinkModel(bnd.LinkB(), uplink)
		seg.GW = st
		seg.GWs = append(seg.GWs, st)
		seg.Cables = append(seg.Cables, bnd.LinkB())
		top.Gateway.Ifaces = append(top.Gateway.Ifaces, st)
		top.Engine.Connect(bnd.CouplingAB(), segShard)
		top.Engine.Connect(bnd.CouplingBA(), gwShard)
		top.Boundaries = append(top.Boundaries, bnd)
		top.Segments = append(top.Segments, seg)
	}
	for _, iface := range top.Gateway.Ifaces {
		iface.IP.SetForwardFn(top.Gateway.forwardFrom(iface))
	}
	return top, nil
}

// segMAC numbers hosts like NewTopology but with a 16-bit segment field, so
// topologies wider than 254 segments stay collision-free.
func segMAC(si int, host byte) view.MAC {
	seg := si + 1
	return view.MAC{0x02, 0x00, byte(seg >> 8), byte(seg), 0x00, host}
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

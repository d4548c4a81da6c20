// Multi-segment topologies: several subnets — each a shared bus or a
// switched star — joined by a gateway host that runs the in-kernel IP
// forwarding path on one shared CPU. This is the fabric the scale
// experiments run on: NewNetwork's single shared link models the paper's
// two-machine testbeds, NewTopology models the machine room around them.
package plexus

import (
	"fmt"

	"plexus/internal/fabric"
	"plexus/internal/filter"
	"plexus/internal/mbuf"
	"plexus/internal/netdev"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// gatewayHostByte is the last address byte reserved for the gateway's
// interface on every subnet.
const gatewayHostByte = 254

// SegmentSpec describes one subnet of a topology.
type SegmentSpec struct {
	Name  string
	Model netdev.Model
	// Switched selects a switched star (one cable per host into a
	// netdev.Switch) instead of a shared broadcast bus.
	Switched bool
	// Switch tunes the fabric when Switched (zero fields take defaults).
	Switch netdev.SwitchConfig
	// Subnet is the /24 prefix, e.g. {10,0,1,0}. Hosts are numbered from
	// .1; the gateway interface is .254.
	Subnet view.IP4
	Hosts  []HostSpec
	// Uplink, when nonzero, is the wire model of this segment's link to the
	// gateway in a sharded topology — e.g. a metro-scale fiber whose longer
	// propagation delay widens the shard synchronization window. Zero means
	// the uplink runs the segment's own Model.
	Uplink netdev.Model
	// GatewayLinks is the number of parallel gateway interfaces on this
	// segment (default 1). Extra interfaces take addresses counting down
	// from .253; a fabric ECMP rule spreads flows across them.
	GatewayLinks int
}

// Segment is one built subnet.
type Segment struct {
	Name   string
	Subnet view.IP4
	// Link is the shared bus (nil when the segment is switched).
	Link *netdev.Link
	// Switch is the fabric (nil when the segment is a shared bus).
	Switch *netdev.Switch
	// Cables are the per-host cables of a switched segment, index-aligned
	// with Hosts; the gateway's cable (if any) is last.
	Cables []*netdev.Link
	Hosts  []*Stack
	// GW is the gateway's interface stack on this segment (nil for a
	// single-segment topology).
	GW *Stack
	// GWs are all gateway interfaces on this segment (GWs[0] == GW); more
	// than one when the spec asked for parallel ECMP links.
	GWs []*Stack
}

// GatewayStats counts forwarding-plane activity.
type GatewayStats struct {
	Forwarded        uint64
	TTLExpired       uint64
	TimeExceededSent uint64 // ICMP Time Exceeded emitted back to senders
	NoRoute          uint64
	Drops            uint64 // copy or transmit failures
	PipeDrops        uint64 // datagrams the fabric pipeline dropped
}

// Gateway is the multi-homed forwarding host: one interface stack per
// segment, all sharing a single CPU, spliced together through the IP
// layer's forwarding hook.
type Gateway struct {
	CPU    *sim.CPU
	Ifaces []*Stack
	stats  GatewayStats
	// scratch is the forwarding path's reusable header-rewrite buffer: the
	// received chain is read-only (§3.4), so the datagram is copied here,
	// TTL/checksum rewritten in place, and re-emitted from the egress pool.
	// All forwarding runs on the gateway's one CPU, so one buffer suffices
	// and the steady-state path allocates nothing.
	scratch []byte
	// pipeline is the optional match-action stage on the forwarding path; it
	// runs on the scratch copy before egress selection, so destination
	// rewrites (VIP → pool member, NAT address → inside host) route
	// correctly, and its path choice steers ECMP egress.
	pipeline *fabric.Pipeline
	// pkt is the pipeline's reusable packet context.
	pkt fabric.Packet
}

// Stats returns a snapshot of forwarding counters.
func (g *Gateway) Stats() GatewayStats { return g.stats }

// InstallPipeline installs (or clears, with nil) the gateway's forwarding
// pipeline. The pipeline must use filter.BaseIP framing: it sees datagrams
// with the IP header at offset 0.
func (g *Gateway) InstallPipeline(pl *fabric.Pipeline) { g.pipeline = pl }

// Topology is a set of segments joined by a gateway.
type Topology struct {
	Sim      *sim.Sim
	Segments []*Segment
	// Gateway is nil for a single-segment topology.
	Gateway *Gateway
}

// NewTopology builds the segments on a fresh simulator. With more than one
// segment, gw describes the gateway host joining them (its interface on
// each subnet takes address .254, and every host's default route points at
// it); with exactly one segment gw may be nil and no gateway is built.
func NewTopology(seed int64, gw *HostSpec, segs []SegmentSpec) (*Topology, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("plexus: topology needs at least one segment")
	}
	if len(segs) > 1 && gw == nil {
		return nil, fmt.Errorf("plexus: multi-segment topology needs a gateway spec")
	}
	s := sim.New(seed)
	top := &Topology{Sim: s}
	if len(segs) > 1 {
		top.Gateway = &Gateway{CPU: sim.NewCPU(s, gw.Name)}
	}
	for si, spec := range segs {
		gwLinks := spec.GatewayLinks
		if gwLinks < 1 || top.Gateway == nil {
			gwLinks = 1
		}
		if len(spec.Hosts) > gatewayHostByte-gwLinks {
			return nil, fmt.Errorf("plexus: segment %s: %d hosts exceed a /24", spec.Name, len(spec.Hosts))
		}
		seg := &Segment{Name: spec.Name, Subnet: spec.Subnet}
		var sharedBus *netdev.Link
		if spec.Switched {
			seg.Switch = netdev.NewSwitch(s, spec.Name+"/sw", spec.Model, spec.Switch)
		} else {
			sharedBus = netdev.NewLink(s, spec.Name+"/"+spec.Model.Name)
			seg.Link = sharedBus
		}
		attach := func() *netdev.Link {
			if !spec.Switched {
				return sharedBus
			}
			cable := netdev.NewLink(s, spec.Name+"/cable")
			seg.Switch.AttachLink(cable)
			seg.Cables = append(seg.Cables, cable)
			return cable
		}
		addr := func(host byte) view.IP4 {
			return view.IP4{spec.Subnet[0], spec.Subnet[1], spec.Subnet[2], host}
		}
		var gwAddr view.IP4
		if top.Gateway != nil {
			gwAddr = addr(gatewayHostByte)
		}
		for i, hs := range spec.Hosts {
			idx := byte(i + 1)
			st, err := NewStack(s, hs.Name, StackConfig{
				Personality: hs.Personality,
				Dispatch:    hs.Dispatch,
				Model:       spec.Model,
				Link:        attach(),
				MAC:         view.MAC{0x02, 0x00, 0x00, 0x00, byte(si + 1), idx},
				Addr:        addr(idx),
				Mask:        view.IP4{255, 255, 255, 0},
				Gateway:     gwAddr,
				Costs:       hs.Costs,
				Pool:        hs.Pool,
				Quarantine:  hs.Quarantine,
				Audit:       hs.Audit,
				CC:          hs.CC,
				MinRTO:      hs.MinRTO,
			})
			if err != nil {
				return nil, fmt.Errorf("plexus: host %s: %w", hs.Name, err)
			}
			seg.Hosts = append(seg.Hosts, st)
		}
		if top.Gateway != nil {
			// k == 0 is the hosts' default route (.254); extra parallel
			// interfaces count down from .253 — the equal-cost links an
			// ECMP rule spreads flows across.
			for k := 0; k < gwLinks; k++ {
				name := gw.Name + "/" + spec.Name
				if k > 0 {
					name = fmt.Sprintf("%s.%d", name, k)
				}
				hb := byte(gatewayHostByte - k)
				st, err := NewStack(s, name, StackConfig{
					Personality: gw.Personality,
					Dispatch:    gw.Dispatch,
					Model:       spec.Model,
					Link:        attach(),
					MAC:         view.MAC{0x02, 0x00, 0x00, 0x00, byte(si + 1), hb},
					Addr:        addr(hb),
					Mask:        view.IP4{255, 255, 255, 0},
					Costs:       gw.Costs,
					CPU:         top.Gateway.CPU,
				})
				if err != nil {
					return nil, fmt.Errorf("plexus: gateway on %s: %w", spec.Name, err)
				}
				seg.GWs = append(seg.GWs, st)
				top.Gateway.Ifaces = append(top.Gateway.Ifaces, st)
			}
			seg.GW = seg.GWs[0]
		}
		top.Segments = append(top.Segments, seg)
	}
	if top.Gateway != nil {
		for _, iface := range top.Gateway.Ifaces {
			iface.IP.SetForwardFn(top.Gateway.forwardFrom(iface))
		}
	}
	return top, nil
}

// PrimeARP installs static ARP entries per subnet — all host pairs plus the
// gateway interface — so experiments measure the steady-state path.
func (top *Topology) PrimeARP() {
	for _, seg := range top.Segments {
		members := seg.Hosts
		if len(seg.GWs) > 0 {
			members = append(append([]*Stack{}, seg.Hosts...), seg.GWs...)
		}
		for _, a := range members {
			for _, b := range members {
				if a != b {
					a.ARP.AddStatic(b.Addr(), b.NIC.MAC())
				}
			}
		}
	}
}

// forwardFrom builds the ingress interface's forwarding hook: datagrams for
// other subnets are TTL-decremented on a private copy and re-emitted out the
// owning interface, all on the gateway's one shared CPU — exactly the
// in-kernel redirection path of §5, applied host-wide. With a fabric
// pipeline installed, the match-action stage runs on the private copy before
// egress selection, so destination rewrites route correctly and ECMP path
// choices pick among parallel candidate links.
func (g *Gateway) forwardFrom(ingress *Stack) func(t *sim.Task, m *mbuf.Mbuf) bool {
	return func(t *sim.Task, m *mbuf.Mbuf) bool {
		v, err := view.IPv4(m.Bytes())
		if err != nil {
			return false
		}
		if g.pipeline == nil {
			// Plain path: route on the datagram's own destination first, so
			// unroutable traffic still falls through to NotForUs accounting.
			egress := g.pickEgress(ingress, v.Dst(), 0)
			if egress == nil {
				g.stats.NoRoute++
				return false
			}
			if v.TTL() <= 1 {
				g.expireTTL(t, ingress, m)
				return true
			}
			buf, span, ok := g.copyOut(m)
			if !ok {
				return true
			}
			return g.emit(t, egress, buf, span)
		}
		// Fabric path: the pipeline may rewrite the destination (VIP → pool
		// member, NAT address → inside host), so routing happens after it.
		if v.TTL() <= 1 {
			g.expireTTL(t, ingress, m)
			return true
		}
		buf, span, ok := g.copyOut(m)
		if !ok {
			return true
		}
		g.pkt = fabric.Packet{Buf: buf, Base: filter.BaseIP, Writable: true, OutPort: -1}
		if g.pipeline.Exec(t, &g.pkt) == fabric.Drop {
			g.stats.PipeDrops++
			return true
		}
		ov, err := view.IPv4(buf)
		if err != nil {
			g.stats.Drops++
			return true
		}
		egress := g.pickEgress(ingress, ov.Dst(), g.pkt.Path)
		if egress == nil {
			g.stats.NoRoute++
			return true
		}
		return g.emit(t, egress, buf, span)
	}
}

// pickEgress selects the forwarding interface for dst: the path'th candidate
// (mod the candidate count) among interfaces other than the ingress with dst
// on-link — so an ECMP path index spreads flows across parallel links, and
// path 0 degenerates to the first match.
func (g *Gateway) pickEgress(ingress *Stack, dst view.IP4, path int) *Stack {
	count := 0
	for _, iface := range g.Ifaces {
		if iface != ingress && iface.IP.OnLink(dst) {
			count++
		}
	}
	if count == 0 {
		return nil
	}
	pick := 0
	if count > 1 && path > 0 {
		pick = path % count
	}
	i := 0
	for _, iface := range g.Ifaces {
		if iface != ingress && iface.IP.OnLink(dst) {
			if i == pick {
				return iface
			}
			i++
		}
	}
	return nil
}

// expireTTL answers a datagram whose TTL ran out: ICMP Time Exceeded back to
// the sender (per RFC 1812), counted in forwarding stats. m is consumed.
func (g *Gateway) expireTTL(t *sim.Task, ingress *Stack, m *mbuf.Mbuf) {
	g.stats.TTLExpired++
	if err := ingress.ICMP.SendTimeExceeded(t, m); err == nil {
		g.stats.TimeExceededSent++
	}
	m.Free()
}

// copyOut copies the datagram to the gateway's pooled scratch buffer and
// frees the original chain. The received chain is read-only (§3.4); a
// DeepCopy here would allocate a fresh buffer for every cross-segment frame.
func (g *Gateway) copyOut(m *mbuf.Mbuf) (buf []byte, span uint64, ok bool) {
	n := m.PktLen()
	if cap(g.scratch) < n {
		g.scratch = make([]byte, n)
	}
	buf = g.scratch[:n]
	if err := m.CopyTo(0, buf); err != nil {
		g.stats.Drops++
		m.Free()
		return nil, 0, false
	}
	if hdr := m.Hdr(); hdr != nil {
		span = hdr.Span
	}
	m.Free()
	return buf, span, true
}

// emit decrements TTL, fixes the header checksum, and re-emits the datagram
// out the egress interface.
func (g *Gateway) emit(t *sim.Task, egress *Stack, buf []byte, span uint64) bool {
	ov, err := view.IPv4(buf)
	if err != nil {
		g.stats.Drops++
		return true
	}
	ov.SetTTL(ov.TTL() - 1)
	ov.ComputeChecksum()
	out := egress.Host.Pool.FromBytes(buf, 0)
	out.Hdr().Span = span
	if err := egress.IP.Forward(t, out); err != nil {
		g.stats.Drops++
		return true
	}
	g.stats.Forwarded++
	return true
}

// Topologies: subnets — each a shared bus or a switched star — joined by a
// gateway host that runs the in-kernel IP forwarding path on one shared CPU.
// Every builder makes its segments with Segment.build: NewNetwork's one bus
// models the paper's two-machine testbeds, NewTopology the machine room
// around them, and NewShardedTopology the same room on one simulator per
// segment.
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
	// from .253; a fabric ECMP rule spreads flows across them. Only
	// NewTopology builds more than one; NewShardedTopology rejects it.
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
	for si := range segs {
		spec := &segs[si]
		gwLinks := 0
		if top.Gateway != nil {
			gwLinks = max(spec.GatewayLinks, 1)
		}
		seg := &Segment{}
		if err := seg.build(s, si, spec, gwLinks); err != nil {
			return nil, err
		}
		// k == 0 is the hosts' default route (.254); extra parallel
		// interfaces count down from .253 — the equal-cost links an ECMP
		// rule spreads flows across.
		for k := 0; k < gwLinks; k++ {
			if err := top.Gateway.addIface(s, gw, seg, si, k, spec.Model, seg.attach()); err != nil {
				return nil, err
			}
		}
		top.Segments = append(top.Segments, seg)
	}
	if top.Gateway != nil {
		top.Gateway.wire()
	}
	return top, nil
}

// hostAddr is host's address on the /24 subnet.
func hostAddr(subnet view.IP4, host byte) view.IP4 {
	return view.IP4{subnet[0], subnet[1], subnet[2], host}
}

// segMAC is the MAC of host on segment si, with a 16-bit segment field so
// topologies wider than 256 segments stay collision-free.
func segMAC(si int, host byte) view.MAC {
	return view.MAC{0x02, 0x00, byte(si >> 8), byte(si), 0x00, host}
}

// build makes spec's medium on s — a shared bus, or a switch each station
// reaches by its own cable — and its hosts, as segment si: host i at .i+1.
// gwLinks is the number of gateway interfaces the caller attaches next, at
// .254 counting down; with any, the hosts route off-subnet traffic to .254.
func (seg *Segment) build(s *sim.Sim, si int, spec *SegmentSpec, gwLinks int) error {
	if len(spec.Hosts) > gatewayHostByte-max(gwLinks, 1) {
		return fmt.Errorf("plexus: segment %s: %d hosts exceed a /24", spec.Name, len(spec.Hosts))
	}
	seg.Name, seg.Subnet = spec.Name, spec.Subnet
	if spec.Switched {
		seg.Switch = netdev.NewSwitch(s, spec.Name+"/sw", spec.Model, spec.Switch)
	} else {
		seg.Link = &netdev.Link{}
	}
	var gwAddr view.IP4
	if gwLinks > 0 {
		gwAddr = hostAddr(spec.Subnet, gatewayHostByte)
	}
	for i, hs := range spec.Hosts {
		idx := byte(i + 1)
		st, err := NewStack(s, StackConfig{HostSpec: hs, Model: spec.Model, Link: seg.attach(),
			MAC: segMAC(si, idx), Addr: hostAddr(spec.Subnet, idx), Mask: mask24, Gateway: gwAddr})
		if err != nil {
			return fmt.Errorf("plexus: host %s: %w", hs.Name, err)
		}
		seg.Hosts = append(seg.Hosts, st)
	}
	return nil
}

// attach returns the link a new station joins seg by: the bus, or a
// fresh cable into the switch.
func (seg *Segment) attach() *netdev.Link {
	if seg.Switch == nil {
		return seg.Link
	}
	cable := &netdev.Link{}
	seg.Switch.AttachLink(cable)
	seg.Cables = append(seg.Cables, cable)
	return cable
}

// addIface builds the gateway's k'th interface on seg (segment si) from the
// gateway spec gw: address .254-k on link, on the gateway's shared CPU.
func (g *Gateway) addIface(s *sim.Sim, gw *HostSpec, seg *Segment, si, k int, model netdev.Model, link *netdev.Link) error {
	iface := *gw
	iface.Name = gw.Name + "/" + seg.Name
	if k > 0 {
		iface.Name = fmt.Sprintf("%s.%d", iface.Name, k)
	}
	hb := byte(gatewayHostByte - k)
	st, err := NewStack(s, StackConfig{HostSpec: iface, Model: model, Link: link,
		MAC: segMAC(si, hb), Addr: hostAddr(seg.Subnet, hb), Mask: mask24, CPU: g.CPU})
	if err != nil {
		return fmt.Errorf("plexus: gateway on %s: %w", seg.Name, err)
	}
	seg.GWs = append(seg.GWs, st)
	seg.GW = seg.GWs[0]
	g.Ifaces = append(g.Ifaces, st)
	return nil
}

// wire installs every interface's forwarding hook.
func (g *Gateway) wire() {
	for _, iface := range g.Ifaces {
		iface.IP.SetForwardFn(g.forwardFrom(iface))
	}
}

// PrimeARP installs static ARP entries on every subnet so experiments
// measure the steady-state path.
func (top *Topology) PrimeARP() {
	for _, seg := range top.Segments {
		seg.PrimeARP()
	}
}

// PrimeARP installs static ARP entries between every pair of the segment's
// stations — its hosts and gateway interfaces — so latency experiments
// measure the protocol path, not a first-packet ARP exchange (the paper's
// numbers are steady-state).
func (seg *Segment) PrimeARP() {
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

// forwardFrom builds the ingress interface's forwarding hook: datagrams for
// other subnets are TTL-decremented on a private copy and re-emitted out the
// owning interface, all on the gateway's one shared CPU — exactly the
// in-kernel redirection path of §5, applied host-wide. With a fabric
// pipeline installed, the match-action stage runs on the private copy before
// egress selection, so destination rewrites (VIP → pool member, NAT address
// → inside host) route correctly and ECMP path choices pick among parallel
// candidate links. The hook consumes every datagram it parses: one with no
// route is counted in NoRoute and freed.
func (g *Gateway) forwardFrom(ingress *Stack) func(t *sim.Task, m *mbuf.Mbuf) bool {
	return func(t *sim.Task, m *mbuf.Mbuf) bool {
		v, err := view.IPv4(m.Bytes())
		if err != nil {
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
		path := 0
		if g.pipeline != nil {
			g.pkt = fabric.Packet{Buf: buf, Base: filter.BaseIP, Writable: true}
			if g.pipeline.Exec(t, &g.pkt) == fabric.Drop {
				g.stats.PipeDrops++
				return true
			}
			path = g.pkt.Path
		}
		ov, err := view.IPv4(buf)
		if err != nil {
			g.stats.Drops++
			return true
		}
		egress := g.pickEgress(ingress, ov.Dst(), path)
		if egress == nil {
			g.stats.NoRoute++
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
// fresh copy here would allocate for every cross-segment frame.
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

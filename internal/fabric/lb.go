package fabric

import (
	"fmt"
	"sort"

	"plexus/internal/filter"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// The L4 virtual-IP load balancer: traffic for the VIP is destination-
// rewritten to a server chosen by consistent hashing of the 5-tuple over a
// ring of virtual nodes, so a flow's server assignment is stable and — the
// property plain modulo hashing lacks — mostly survives pool resizes: only
// ~1/N of flows move when the pool grows from N-1 to N servers.

// DefaultLBReplicas is the virtual-node count per server on the hash ring.
const DefaultLBReplicas = 64

// LBConfig configures a virtual-IP load balancer.
type LBConfig struct {
	// VIP is the virtual service address (off-subnet: clients route to it
	// through their default gateway).
	VIP view.IP4
	// Port is the service port.
	Port uint16
	// Servers is the initial pool.
	Servers []view.IP4
	// PoolCIDR covers the server pool, e.g. "10.0.2.0/24" — the reply rule
	// matches it to rewrite server sources back to the VIP.
	PoolCIDR string
	// Replicas is the virtual-node count per server (DefaultLBReplicas
	// when zero).
	Replicas int
}

type ringPoint struct {
	hash   uint32
	server int
}

// LoadBalancer is the pool and ring state shared by the VIP and reply rules.
type LoadBalancer struct {
	vip      view.IP4
	port     uint16
	replicas int
	servers  []view.IP4
	ring     []ringPoint
	hits     map[uint32]uint64 // server addr -> flows/packets steered to it
}

// NewLB creates the service and its match-action table: a VIP rule
// (dst == VIP: pick a server, rewrite the destination) and a reply rule
// (src in PoolCIDR with the service source port: rewrite the source back to
// the VIP).
func NewLB(name string, base filter.Base, cfg LBConfig) (*LoadBalancer, *Table, error) {
	if cfg.Replicas == 0 {
		cfg.Replicas = DefaultLBReplicas
	}
	lb := &LoadBalancer{
		vip:      cfg.VIP,
		port:     cfg.Port,
		replicas: cfg.Replicas,
		hits:     make(map[uint32]uint64),
	}
	lb.SetServers(cfg.Servers)
	tb := NewTable(name)
	vipRule, err := NewRule("lb-vip", fmt.Sprintf("ip.dst == %d.%d.%d.%d",
		cfg.VIP[0], cfg.VIP[1], cfg.VIP[2], cfg.VIP[3]), base,
		ActionFunc{Label: "lb-vip", Fn: lb.toServer})
	if err != nil {
		return nil, nil, err
	}
	reply, err := NewRule("lb-reply",
		fmt.Sprintf("ip.src in %s && udp.sport == %d", cfg.PoolCIDR, cfg.Port), base,
		ActionFunc{Label: "lb-reply", Fn: lb.toVIP})
	if err != nil {
		return nil, nil, err
	}
	tb.Add(vipRule).Add(reply)
	return lb, tb, nil
}

// SetServers replaces the pool and rebuilds the ring. Assignments for flows
// hashing to surviving servers are unchanged — the consistent-hashing
// affinity property the resize test pins.
func (lb *LoadBalancer) SetServers(servers []view.IP4) {
	lb.servers = append(lb.servers[:0], servers...)
	lb.ring = lb.ring[:0]
	for i, s := range servers {
		for r := 0; r < lb.replicas; r++ {
			lb.ring = append(lb.ring, ringPoint{hash: vnodeHash(s, r), server: i})
		}
	}
	sort.Slice(lb.ring, func(a, b int) bool {
		if lb.ring[a].hash != lb.ring[b].hash {
			return lb.ring[a].hash < lb.ring[b].hash
		}
		return lb.ring[a].server < lb.ring[b].server
	})
}

// Hits returns the packets steered to each current server, index-aligned
// with the pool as last set.
func (lb *LoadBalancer) Hits() []uint64 {
	out := make([]uint64, len(lb.servers))
	for i, s := range lb.servers {
		out[i] = lb.hits[s.Uint32()]
	}
	return out
}

// vnodeHash names virtual node r of a server on the ring: FNV-1a over the
// address and replica number, finished with an avalanche mix — raw FNV of
// near-identical inputs (adjacent addresses, sequential replicas) clusters on
// the ring, which starves servers.
func vnodeHash(s view.IP4, r int) uint32 {
	h := uint32(2166136261)
	for _, c := range []byte{s[0], s[1], s[2], s[3], byte(r >> 8), byte(r)} {
		h ^= uint32(c)
		h *= 16777619
	}
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// Pick returns the server index for a flow hash: the first ring point at or
// after h, wrapping to the start.
func (lb *LoadBalancer) Pick(h uint32) int {
	i := sort.Search(len(lb.ring), func(i int) bool { return lb.ring[i].hash >= h })
	if i == len(lb.ring) {
		i = 0
	}
	return lb.ring[i].server
}

// toServer rewrites VIP traffic to the consistently-hashed pool member.
func (lb *LoadBalancer) toServer(t *sim.Task, p *Packet) Verdict {
	if len(lb.servers) == 0 {
		return Drop
	}
	ft, ok := ExtractTuple(p.Buf, p.Base)
	if !ok {
		return NextTable
	}
	srv := lb.servers[lb.Pick(ft.Hash())]
	lb.hits[srv.Uint32()]++
	RewriteAddrPort(p, false, srv, 0, false)
	return NextTable
}

// toVIP rewrites a server reply's source back to the virtual address.
func (lb *LoadBalancer) toVIP(t *sim.Task, p *Packet) Verdict {
	RewriteAddrPort(p, true, lb.vip, lb.port, true)
	return NextTable
}

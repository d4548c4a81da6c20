package bench

import (
	"fmt"

	"plexus/internal/event"
	"plexus/internal/fabric"
	"plexus/internal/filter"
	"plexus/internal/netdev"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// This file implements the `-exp fabric` experiment: a datacenter cell whose
// gateway runs the full match-action service chain. Clients on one switched
// segment address a virtual IP that exists on no wire; the gateway's pipeline
// admits the traffic through an ACL (default deny), rewrites the VIP to a
// consistently-hashed member of the server rack on the other segment,
// source-NATs the client flows behind a single address, and spreads them by
// 5-tuple hash across two parallel gateway links. The sweep crosses offered
// request rate with server-pool size; each cell reports goodput, latency
// percentiles, load-balance skew across the rack, NAT table occupancy,
// per-link ECMP splits, and every rule's hit count. Rows are byte-identical
// at any -parallel and -shards setting.

// Fabric-experiment parameters.
const (
	// fabricClients is the client population of every cell.
	fabricClients = 16
	// fabricEchoPayload is the request/response payload size.
	fabricEchoPayload = 64
	// fabricGatewayLinks is the parallel gateway-link count ECMP spreads over.
	fabricGatewayLinks = 2
)

// fabricVIP is the virtual service address (on no wire; reached only through
// the pipeline's rewrite) and fabricNATAddr the source-NAT address on the
// server subnet.
var (
	fabricVIP     = view.IP4{10, 0, 9, 9}
	fabricNATAddr = view.IP4{10, 0, 2, 200}
)

// FabricRuleHits is one rule's hit counter in a row.
type FabricRuleHits struct {
	Table string `json:"table"`
	Rule  string `json:"rule"`
	Hits  uint64 `json:"hits"`
}

// FabricRow is one cell of the `-exp fabric` sweep.
type FabricRow struct {
	// Rate is the offered request rate per client (req/s).
	Rate int `json:"rate"`
	// PoolSize is the server-rack size behind the VIP.
	PoolSize int `json:"pool_size"`
	Clients  int `json:"clients"`
	// Ops counts completed request/response round trips.
	Ops uint64 `json:"ops"`
	// GoodputMbps is response payload delivered to clients per second.
	GoodputMbps float64  `json:"goodput_mbps"`
	P50         sim.Time `json:"p50_ns"`
	P99         sim.Time `json:"p99_ns"`
	// Retries counts requests unanswered within their pacing interval.
	Retries uint64 `json:"retries"`
	// Skew is the load-balance imbalance across the rack: the busiest
	// server's share of steered requests divided by the perfectly-even share
	// (1.0 = perfectly balanced).
	Skew float64 `json:"skew"`
	// NATOccupancy is the translation-table population after the run (one
	// entry per client flow).
	NATOccupancy int `json:"nat_occupancy"`
	// LinkHits is the per-gateway-link ECMP split of pipeline-processed
	// datagrams.
	LinkHits []uint64 `json:"link_hits"`
	// PipeDrops counts datagrams the pipeline dropped (ACL denies, NAT
	// exhaustion).
	PipeDrops uint64 `json:"pipe_drops"`
	// RuleHits is every rule's hit counter, in table order.
	RuleHits []FabricRuleHits `json:"rule_hits"`
	// Events is the cell's deterministic fired-event count.
	Events uint64 `json:"events"`
}

// Fabric runs the sweep: rates × pool sizes, each cell on its own seeded
// simulator with its own pipeline state.
func Fabric(rates, pools []int, duration sim.Time) ([]FabricRow, error) {
	type cell struct{ rate, pool int }
	var cells []cell
	for _, r := range rates {
		for _, p := range pools {
			cells = append(cells, cell{rate: r, pool: p})
		}
	}
	return RunCells(cells, func(c cell) (FabricRow, error) {
		row, err := fabricCell(c.rate, c.pool, duration)
		if err != nil {
			return FabricRow{}, fmt.Errorf("fabric %dreq/%dsrv: %w", c.rate, c.pool, err)
		}
		return row, nil
	})
}

// fabricPipeline assembles the cell's service chain: ACL → LB → NAT → ECMP.
func fabricPipeline(pool []view.IP4) (*fabric.Pipeline, *fabric.LoadBalancer, *fabric.NAT, *fabric.ECMP, error) {
	acl, err := fabric.NewACL("acl", filter.BaseIP, []fabric.ACLEntry{
		{Name: "permit-vip", Match: "ip.dst == 10.0.9.9 && udp.dport == 7", Permit: true},
		{Name: "permit-replies", Match: "ip.src in 10.0.2.0/24 && udp.sport == 7", Permit: true},
	}, false)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	lb, lbTable, err := fabric.NewLB("lb", filter.BaseIP, fabric.LBConfig{
		VIP: fabricVIP, Port: 7, Servers: pool, PoolCIDR: "10.0.2.0/24",
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	nat, natTable, err := fabric.NewNAT("nat", filter.BaseIP, fabric.NATConfig{
		Addr: fabricNATAddr, InsideCIDR: "10.0.1.0/24",
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	ecmp, ecmpRule, err := fabric.NewECMP("ecmp", "", filter.BaseIP, fabricGatewayLinks)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	pl := fabric.NewPipeline("cell", filter.BaseIP, event.QuarantinePolicy{Threshold: 3}).
		Add(acl).Add(lbTable).Add(natTable).Add(fabric.NewTable("ecmp").Add(ecmpRule))
	return pl, lb, nat, ecmp, nil
}

// fabricCell runs one (rate, pool) configuration.
func fabricCell(rate, pool int, duration sim.Time) (FabricRow, error) {
	clientSegment := plexus.SegmentSpec{
		Name: "lan0", Model: netdev.EthernetModel(), Switched: true,
		Subnet: view.IP4{10, 0, 1, 0},
	}
	for i := 0; i < fabricClients; i++ {
		clientSegment.Hosts = append(clientSegment.Hosts,
			hostSpec(fmt.Sprintf("c%03d", i), SysPlexusInterrupt))
	}
	rackSegment := plexus.SegmentSpec{
		Name: "lan1", Model: netdev.EthernetModel(), Switched: true,
		Subnet: view.IP4{10, 0, 2, 0}, GatewayLinks: fabricGatewayLinks,
	}
	for i := 0; i < pool; i++ {
		rackSegment.Hosts = append(rackSegment.Hosts,
			hostSpec(fmt.Sprintf("s%02d", i), SysPlexusInterrupt))
	}
	gw := hostSpec("gw", SysPlexusInterrupt)
	top, err := plexus.NewTopology(1, &gw, []plexus.SegmentSpec{clientSegment, rackSegment})
	if err != nil {
		return FabricRow{}, err
	}
	top.PrimeARP()
	defer recordEvents(top.Sim)

	servers := top.Segments[1].Hosts
	poolAddrs := make([]view.IP4, len(servers))
	for i, s := range servers {
		poolAddrs[i] = s.Addr()
	}
	pl, lb, nat, ecmp, err := fabricPipeline(poolAddrs)
	if err != nil {
		return FabricRow{}, err
	}
	top.Gateway.InstallPipeline(pl)

	rackGW := top.Segments[1].GW
	for _, s := range servers {
		if err := startEchoServer(s); err != nil {
			return FabricRow{}, err
		}
		// The NAT address lives on no interface: servers resolve it to the
		// gateway's rack-side MAC so replies enter the forwarding path.
		s.ARP.AddStatic(fabricNATAddr, rackGW.NIC.MAC())
	}

	interval := sim.Second / sim.Time(rate)
	var ts []*tally
	for ci, cl := range top.Segments[0].Hosts {
		// Stagger starts across the interval so offered load is smooth.
		offset := interval * sim.Time(ci) / sim.Time(fabricClients)
		pc, err := startPaced(cl, fabricVIP, fabricEchoPayload, interval, offset, duration)
		if err != nil {
			return FabricRow{}, err
		}
		ts = append(ts, &pc.tally)
	}

	top.Sim.RunUntil(duration)

	all, rtt := fold(ts)
	row := FabricRow{Rate: rate, PoolSize: pool, Clients: fabricClients,
		Ops: all.ops, Retries: all.retries, GoodputMbps: all.mbps(duration), P50: rtt.P50, P99: rtt.P99}

	hits := lb.Hits()
	var total, max uint64
	for _, h := range hits {
		total += h
		if h > max {
			max = h
		}
	}
	if total > 0 {
		row.Skew = float64(max) * float64(len(hits)) / float64(total)
	}
	row.NATOccupancy = nat.Occupancy()
	row.LinkHits = append(row.LinkHits, ecmp.Hits()...)
	row.PipeDrops = top.Gateway.Stats().PipeDrops
	for _, rs := range pl.Snapshot() {
		row.RuleHits = append(row.RuleHits, FabricRuleHits{Table: rs.Table, Rule: rs.Name, Hits: rs.Hits})
	}
	row.Events = top.Sim.Executed()
	if row.Ops == 0 {
		return FabricRow{}, fmt.Errorf("no operations completed")
	}
	return row, nil
}

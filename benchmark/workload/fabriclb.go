package workload

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

// fabric-lb sizes: the `-exp fabric` cell with eight servers. Sixteen
// clients on one switched segment address a VIP that exists on no wire; the
// gateway's pipeline admits the traffic through a default-deny ACL, rewrites
// the VIP to a consistently hashed rack member, source-NATs the flow behind
// one address and spreads it over two gateway links by 5-tuple hash.
//
// The sweep's 400 req/s per client collapses on these 10 Mb/s wires (8 of
// 1263 requests answered in BENCH_fabric.json), and the benchmark needs a
// load on which no op fails, so the clients pace at fabricRate instead.
const (
	fabricClients = 16
	fabricServers = 8
	fabricPayload = 64
	fabricGWLinks = 2
	fabricRate    = 160 // requests per second per client
	fabricTimeout = 25 * sim.Millisecond
	fabricSimTime = 70 * sim.Second
	fabricDrain   = 50 * sim.Millisecond
)

var (
	fabricVIP     = view.IP4{10, 0, 9, 9}
	fabricNATAddr = view.IP4{10, 0, 2, 200}
)

// FabricChain assembles the workload's service chain — ACL (default deny),
// consistent-hash LB over pool, source NAT, 5-tuple ECMP over the gateway
// links — as the gateway installs it. The layer probe times the same chain.
func FabricChain(pool []view.IP4) (*fabric.Pipeline, *fabric.LoadBalancer, *fabric.NAT, error) {
	acl, err := fabric.NewACL("acl", filter.BaseIP, []fabric.ACLEntry{
		{Name: "permit-vip", Match: "ip.dst == 10.0.9.9 && udp.dport == 7", Permit: true},
		{Name: "permit-replies", Match: "ip.src in 10.0.2.0/24 && udp.sport == 7", Permit: true},
	}, false)
	if err != nil {
		return nil, nil, nil, err
	}
	lb, lbTable, err := fabric.NewLB("lb", filter.BaseIP, fabric.LBConfig{
		VIP: fabricVIP, Port: 7, Servers: pool, PoolCIDR: "10.0.2.0/24"})
	if err != nil {
		return nil, nil, nil, err
	}
	nat, natTable, err := fabric.NewNAT("nat", filter.BaseIP, fabric.NATConfig{
		Addr: fabricNATAddr, InsideCIDR: "10.0.1.0/24"})
	if err != nil {
		return nil, nil, nil, err
	}
	_, ecmpRule, err := fabric.NewECMP("ecmp", "", filter.BaseIP, fabricGWLinks)
	if err != nil {
		return nil, nil, nil, err
	}
	pl := fabric.NewPipeline("cell", filter.BaseIP, event.QuarantinePolicy{Threshold: 3}).
		Add(acl).Add(lbTable).Add(natTable).Add(fabric.NewTable("ecmp").Add(ecmpRule))
	return pl, lb, nat, nil
}

type fabricRig struct {
	w       *world
	top     *plexus.Topology
	clients []*echoClient
}

func buildFabricLB(p Params, rec *recorder, stop sim.Time) (*fabricRig, error) {
	lan := plexus.SegmentSpec{Name: "lan0", Model: netdev.EthernetModel(), Switched: true,
		Subnet: view.IP4{10, 0, 1, 0}}
	for i := 0; i < fabricClients; i++ {
		lan.Hosts = append(lan.Hosts, SpinHost(fmt.Sprintf("c%03d", i)))
	}
	rack := plexus.SegmentSpec{Name: "lan1", Model: netdev.EthernetModel(), Switched: true,
		Subnet: view.IP4{10, 0, 2, 0}, GatewayLinks: fabricGWLinks}
	for i := 0; i < fabricServers; i++ {
		rack.Hosts = append(rack.Hosts, SpinHost(fmt.Sprintf("s%02d", i)))
	}
	gw := SpinHost("gw")
	top, err := plexus.NewTopology(p.Seed, &gw, []plexus.SegmentSpec{lan, rack})
	if err != nil {
		return nil, err
	}
	top.PrimeARP()
	servers := top.Segments[1].Hosts
	pool := make([]view.IP4, len(servers))
	for i, s := range servers {
		pool[i] = s.Addr()
	}

	pl, lb, nat, err := FabricChain(pool)
	if err != nil {
		return nil, err
	}
	top.Gateway.InstallPipeline(pl)

	w := &world{sims: []*sim.Sim{top.Sim}, servers: servers, gateway: top.Gateway,
		pipeline: pl, lb: lb, nat: nat}
	for _, seg := range top.Segments {
		w.stacks = append(w.stacks, seg.Hosts...)
		w.switches = append(w.switches, seg.Switch)
	}
	w.stacks = append(w.stacks, top.Gateway.Ifaces...)
	rig := &fabricRig{w: w, top: top}

	rackGW := top.Segments[1].GW
	for _, s := range servers {
		if err := startEcho(s); err != nil {
			return nil, err
		}
		// The NAT address lives on no interface: servers resolve it to the
		// gateway's rack-side MAC so replies enter the forwarding path.
		s.ARP.AddStatic(fabricNATAddr, rackGW.NIC.MAC())
	}
	interval := sim.Second / fabricRate
	clients := top.Segments[0].Hosts
	gwPort := top.Segments[0].Switch.Ports()[len(clients)]
	for ci, cl := range clients {
		c := newEchoClient(cl, fabricVIP, gwPort, interval, fabricTimeout, stop, fabricPayload,
			splitmix(uint64(p.Seed))^splitmix(uint64(ci)), rec, w)
		if err := c.open(); err != nil {
			return nil, err
		}
		rig.clients = append(rig.clients, c)
		// Evenly spaced send slots, handed out by the seed.
		slot := (ci + int(splitmix(uint64(p.Seed))%fabricClients)) % fabricClients
		cl.Host.Sim.AtArg(interval*sim.Time(slot)/fabricClients, "echo-tick", echoTick, c)
	}
	return rig, nil
}

func runFabricLB(p Params) (*Result, error) {
	stop := scaled(fabricSimTime, p.Size, 100*sim.Millisecond)
	var rec *recorder
	rig, setup, err := timedSetup(16, func() (*fabricRig, error) {
		rec = newRecorder(int(stop.Seconds()*fabricRate+2) * fabricClients)
		return buildFabricLB(p, rec, stop)
	})
	if err != nil {
		return nil, err
	}
	w := rig.w
	w.install(p.Sink)
	run := measured{w: w, rec: rec, setup: setup, window: stop + fabricDrain}
	run.begin()
	rig.top.Sim.RunUntil(stop + fabricDrain)
	run.end()
	failUnanswered(rig.clients, rec)
	return run.result(nil)
}

package plexus

import (
	"testing"

	"plexus/internal/event"
	"plexus/internal/fabric"
	"plexus/internal/filter"
	"plexus/internal/netdev"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// cellSpec builds the datacenter-cell topology the fabric experiments use:
// clients on one switched segment, servers on another behind gwLinks parallel
// gateway interfaces.
func cellSpec(t *testing.T, clients, servers, gwLinks int) *Topology {
	t.Helper()
	gw := spinSpec("gw")
	cs := make([]HostSpec, clients)
	for i := range cs {
		cs[i] = spinSpec("client" + string(rune('0'+i)))
	}
	ss := make([]HostSpec, servers)
	for i := range ss {
		ss[i] = spinSpec("server" + string(rune('0'+i)))
	}
	top, err := NewTopology(1, &gw, []SegmentSpec{
		{Name: "lan0", Model: netdev.EthernetModel(), Subnet: view.IP4{10, 0, 1, 0}, Switched: true, Hosts: cs},
		{Name: "lan1", Model: netdev.EthernetModel(), Subnet: view.IP4{10, 0, 2, 0}, Switched: true, Hosts: ss,
			GatewayLinks: gwLinks},
	})
	if err != nil {
		t.Fatal(err)
	}
	top.PrimeARP()
	return top
}

// vipPipeline assembles the full service chain the capstone experiment runs:
// ACL (default deny) → VIP load balancer → ECMP across the parallel links.
func vipPipeline(t *testing.T, vip view.IP4, port uint16, servers []view.IP4) (*fabric.Pipeline, *fabric.LoadBalancer, *fabric.ECMP) {
	t.Helper()
	acl, err := fabric.NewACL("acl", filter.BaseIP, []fabric.ACLEntry{
		{Name: "permit-vip", Match: "ip.dst == 10.0.9.9 && udp.dport == 7", Permit: true},
		{Name: "permit-replies", Match: "ip.src in 10.0.2.0/24 && udp.sport == 7", Permit: true},
		{Name: "permit-icmp", Match: "ip.proto == 1", Permit: true},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	lb, lbTable, err := fabric.NewLB("lb", filter.BaseIP, fabric.LBConfig{
		VIP: vip, Port: port, Servers: servers, PoolCIDR: "10.0.2.0/24",
	})
	if err != nil {
		t.Fatal(err)
	}
	ecmp, ecmpRule, err := fabric.NewECMP("ecmp", "", filter.BaseIP, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl := fabric.NewPipeline("cell", filter.BaseIP, event.QuarantinePolicy{Threshold: 3}).
		Add(acl).Add(lbTable).Add(fabric.NewTable("ecmp").Add(ecmpRule))
	return pl, lb, ecmp
}

// The capstone path end to end: clients address a virtual IP that exists on
// no wire; the gateway's ACL admits it, the load balancer rewrites it to a
// consistently-hashed pool member, ECMP spreads flows across the parallel
// gateway links, and server replies are rewritten back so clients only ever
// see the VIP.
func TestGatewayFabricVIPEcho(t *testing.T) {
	const nClients, nServers = 4, 3
	top := cellSpec(t, nClients, nServers, 2)
	vip := view.IP4{10, 0, 9, 9}
	servers := top.Segments[1].Hosts
	pool := make([]view.IP4, len(servers))
	for i, s := range servers {
		pool[i] = s.Addr()
	}
	pl, lb, ecmp := vipPipeline(t, vip, 7, pool)
	top.Gateway.InstallPipeline(pl)

	for _, s := range servers {
		var echo *UDPApp
		echo, err := s.OpenUDP(UDPAppOptions{Port: 7}, func(tk *sim.Task, data []byte, src view.IP4, srcPort uint16) {
			_ = echo.Send(tk, src, srcPort, data)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	replies := 0
	const perClient = 8
	for _, c := range top.Segments[0].Hosts {
		capp, err := c.OpenUDP(UDPAppOptions{}, func(tk *sim.Task, data []byte, src view.IP4, srcPort uint16) {
			if src != vip || srcPort != 7 {
				t.Errorf("reply from %v:%d, want VIP %v:7 (rewrite leaked)", src, srcPort, vip)
			}
			replies++
		})
		if err != nil {
			t.Fatal(err)
		}
		host := c
		for i := 0; i < perClient; i++ {
			host.SpawnAt(sim.Time(i)*sim.Millisecond, "req", func(tk *sim.Task) {
				_ = capp.Send(tk, vip, 7, []byte("ping through the fabric"))
			})
		}
	}
	top.Sim.Run()

	want := nClients * perClient
	if replies != want {
		t.Fatalf("clients got %d replies, want %d", replies, want)
	}
	// Every request was steered to some pool member and counted there.
	var steered uint64
	for _, h := range lb.Hits() {
		steered += h
	}
	if steered != uint64(want) {
		t.Errorf("lb steered %d requests, want %d", steered, want)
	}
	// ECMP saw request and reply datagrams; flows landed on both links.
	var ecmpTotal uint64
	for _, h := range ecmp.Hits() {
		ecmpTotal += h
	}
	if ecmpTotal != uint64(2*want) {
		t.Errorf("ecmp handled %d datagrams, want %d", ecmpTotal, 2*want)
	}
	gs := top.Gateway.Stats()
	if gs.Forwarded != uint64(2*want) {
		t.Errorf("gateway forwarded %d, want %d", gs.Forwarded, 2*want)
	}
	if gs.PipeDrops != 0 || gs.NoRoute != 0 {
		t.Errorf("gateway drops: %+v", gs)
	}
	// All traffic was VIP traffic: the ACL's default-deny rule never fired.
	for _, rs := range pl.Snapshot() {
		if rs.Name == "default-deny" && rs.Hits != 0 {
			t.Errorf("default-deny hit %d times on clean traffic", rs.Hits)
		}
	}
}

// The ACL's default-deny drops traffic no permit rule covers, counted on the
// gateway and on the rule.
func TestGatewayFabricACLDefaultDeny(t *testing.T) {
	top := cellSpec(t, 1, 1, 1)
	server := top.Segments[1].Hosts[0]
	pl, _, _ := vipPipeline(t, view.IP4{10, 0, 9, 9}, 7, []view.IP4{server.Addr()})
	top.Gateway.InstallPipeline(pl)

	client := top.Segments[0].Hosts[0]
	capp, err := client.OpenUDP(UDPAppOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Direct-to-server traffic on a port no rule permits.
	client.Spawn("blocked", func(tk *sim.Task) {
		_ = capp.Send(tk, server.Addr(), 99, []byte("not allowed"))
	})
	top.Sim.Run()
	if gs := top.Gateway.Stats(); gs.PipeDrops != 1 || gs.Forwarded != 0 {
		t.Errorf("gateway stats %+v, want PipeDrops=1 Forwarded=0", gs)
	}
	for _, rs := range pl.Snapshot() {
		if rs.Name == "default-deny" && rs.Hits != 1 {
			t.Errorf("default-deny hits = %d, want 1", rs.Hits)
		}
	}
}

// Source NAT on the gateway: outbound flows are rewritten to the NAT address
// with a deterministic mapped port; replies addressed to the NAT address are
// translated back and delivered to the inside host.
func TestGatewayFabricNATRoundTrip(t *testing.T) {
	top := cellSpec(t, 2, 1, 1)
	server := top.Segments[1].Hosts[0]
	natAddr := view.IP4{10, 0, 2, 200}

	nat, natTable, err := fabric.NewNAT("nat", filter.BaseIP, fabric.NATConfig{
		Addr: natAddr, InsideCIDR: "10.0.1.0/24",
	})
	if err != nil {
		t.Fatal(err)
	}
	pl := fabric.NewPipeline("nat", filter.BaseIP, event.QuarantinePolicy{}).Add(natTable)
	top.Gateway.InstallPipeline(pl)
	// The NAT address lives on no interface: the server resolves it to the
	// gateway's segment-1 MAC so replies land on the forwarding path.
	server.ARP.AddStatic(natAddr, top.Segments[1].GW.NIC.MAC())

	var echo *UDPApp
	echo, err = server.OpenUDP(UDPAppOptions{Port: 7}, func(tk *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		if src != natAddr {
			t.Errorf("server saw source %v, want NAT address %v", src, natAddr)
		}
		if srcPort < fabric.NATPortBase {
			t.Errorf("server saw source port %d, want >= %d", srcPort, fabric.NATPortBase)
		}
		_ = echo.Send(tk, src, srcPort, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	replies := 0
	for _, c := range top.Segments[0].Hosts {
		capp, err := c.OpenUDP(UDPAppOptions{}, func(tk *sim.Task, data []byte, src view.IP4, srcPort uint16) {
			replies++
		})
		if err != nil {
			t.Fatal(err)
		}
		host := c
		host.Spawn("req", func(tk *sim.Task) {
			_ = capp.Send(tk, server.Addr(), 7, []byte("via nat"))
		})
	}
	top.Sim.Run()

	if replies != 2 {
		t.Fatalf("clients got %d replies, want 2", replies)
	}
	if nat.Occupancy() != 2 {
		t.Errorf("NAT table holds %d entries, want 2 (one per client flow)", nat.Occupancy())
	}
	if nat.Exhausted() != 0 || nat.Unmatched() != 0 {
		t.Errorf("NAT drops: exhausted=%d unmatched=%d", nat.Exhausted(), nat.Unmatched())
	}
}

// A fabric rule that panics on every packet is quarantined by the policy and
// the cell keeps serving: no datagram is lost to the rogue rule.
func TestGatewayFabricPanickingRuleQuarantined(t *testing.T) {
	top := cellSpec(t, 1, 1, 1)
	server := top.Segments[1].Hosts[0]

	rogue, err := fabric.NewRule("rogue", "", filter.BaseIP,
		fabric.ActionFunc{Label: "rogue", Fn: func(tk *sim.Task, p *fabric.Packet) fabric.Verdict {
			panic("rogue fabric program")
		}})
	if err != nil {
		t.Fatal(err)
	}
	pl := fabric.NewPipeline("rogue", filter.BaseIP, event.QuarantinePolicy{Threshold: 2}).
		Add(fabric.NewTable("rogue").Add(rogue))
	top.Gateway.InstallPipeline(pl)

	var echo *UDPApp
	echo, err = server.OpenUDP(UDPAppOptions{Port: 7}, func(tk *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		_ = echo.Send(tk, src, srcPort, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	client := top.Segments[0].Hosts[0]
	replies := 0
	capp, err := client.OpenUDP(UDPAppOptions{}, func(tk *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		replies++
	})
	if err != nil {
		t.Fatal(err)
	}
	const sends = 6
	for i := 0; i < sends; i++ {
		client.SpawnAt(sim.Time(i)*sim.Millisecond, "req", func(tk *sim.Task) {
			_ = capp.Send(tk, server.Addr(), 7, []byte("survives the rogue"))
		})
	}
	top.Sim.Run()

	if replies != sends {
		t.Fatalf("client got %d replies, want %d (rogue rule dropped traffic)", replies, sends)
	}
	if !pl.Quarantined() {
		t.Error("rogue pipeline not quarantined")
	}
	if got := pl.Stats().Faults; got != 2 {
		t.Errorf("faults = %d, want 2 (threshold)", got)
	}
	if gs := top.Gateway.Stats(); gs.PipeDrops != 0 {
		t.Errorf("PipeDrops = %d, want 0", gs.PipeDrops)
	}
}

// A datagram whose TTL runs out at the gateway is answered with ICMP Time
// Exceeded and counted; the sender's NIC sees the error come back.
func TestGatewayTTLExpiryEmitsTimeExceeded(t *testing.T) {
	top := cellSpec(t, 1, 1, 1)
	client := top.Segments[0].Hosts[0]
	server := top.Segments[1].Hosts[0]
	ingress := top.Segments[0].GW

	// Hand the forwarding hook a datagram already at TTL 1 (locally
	// originated traffic starts at 64; expiry is a transit phenomenon).
	b := make([]byte, view.IPv4MinHdrLen+view.UDPHdrLen+8)
	b[0] = 0x45
	ipv, _ := view.IPv4(b)
	ipv.SetTotalLen(len(b))
	ipv.SetTTL(1)
	ipv.SetProto(view.IPProtoUDP)
	ipv.SetSrc(client.Addr())
	ipv.SetDst(server.Addr())
	ipv.ComputeChecksum()
	uv, _ := view.UDP(b[view.IPv4MinHdrLen:])
	uv.SetSrcPort(5000)
	uv.SetDstPort(7)
	uv.SetLength(view.UDPHdrLen + 8)

	baseRx := client.NIC.Stats().RxFrames
	fwd := top.Gateway.forwardFrom(ingress)
	ingress.Spawn("expire", func(tk *sim.Task) {
		m := ingress.Host.Pool.FromBytes(b, 64)
		if !fwd(tk, m) {
			t.Error("forward hook did not consume the expiring datagram")
		}
	})
	top.Sim.Run()

	gs := top.Gateway.Stats()
	if gs.TTLExpired != 1 || gs.TimeExceededSent != 1 {
		t.Fatalf("gateway stats %+v, want TTLExpired=1 TimeExceededSent=1", gs)
	}
	if gs.Forwarded != 0 {
		t.Errorf("expired datagram was forwarded")
	}
	if ist := ingress.ICMP.Stats(); ist.TimeExceededSent != 1 {
		t.Errorf("ingress ICMP TimeExceededSent = %d, want 1", ist.TimeExceededSent)
	}
	if got := client.NIC.Stats().RxFrames - baseRx; got != 1 {
		t.Errorf("client NIC saw %d frames, want 1 (the Time Exceeded)", got)
	}
}

// The forwarding path with a full service pipeline installed stays
// allocation-free once warm: matching, rewriting, NAT lookups, and ECMP
// hashing all run on reused buffers.
func TestGatewayFabricSteadyStateAllocs(t *testing.T) {
	top := cellSpec(t, 1, 2, 2)
	vip := view.IP4{10, 0, 9, 9}
	servers := top.Segments[1].Hosts
	pool := make([]view.IP4, len(servers))
	for i, s := range servers {
		pool[i] = s.Addr()
	}
	pl, _, _ := vipPipeline(t, vip, 7, pool)
	top.Gateway.InstallPipeline(pl)

	for _, s := range servers {
		var echo *UDPApp
		echo, err := s.OpenUDP(UDPAppOptions{Port: 7}, func(tk *sim.Task, data []byte, src view.IP4, srcPort uint16) {
			_ = echo.Send(tk, src, srcPort, data)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	client := top.Segments[0].Hosts[0]
	msg := make([]byte, 8)
	rounds := 0
	var capp *UDPApp
	capp, err := client.OpenUDP(UDPAppOptions{}, func(tk *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		rounds++
		_ = capp.Send(tk, vip, 7, msg)
	})
	if err != nil {
		t.Fatal(err)
	}
	client.Spawn("kick", func(tk *sim.Task) { _ = capp.Send(tk, vip, 7, msg) })

	runRounds := func(k int) {
		target := rounds + k
		for rounds < target {
			if !top.Sim.Step() {
				t.Fatal("simulation drained before completing echo rounds")
			}
		}
	}
	runRounds(64)
	avg := testing.AllocsPerRun(100, func() { runRounds(1) })
	if avg != 0 {
		t.Fatalf("steady-state fabric echo round allocates %.2f/iter, want 0", avg)
	}
}

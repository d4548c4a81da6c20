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

// hostNamed returns the host called name from any segment, or nil.
func hostNamed(segs []*Segment, name string) *Stack {
	for _, seg := range segs {
		for _, h := range seg.Hosts {
			if h.Name() == name {
				return h
			}
		}
	}
	return nil
}

// A UDP echo crosses two subnets through the gateway: out one interface
// stack, TTL-decremented, in the other — twice (request and reply).
func TestTopologyCrossSubnetEcho(t *testing.T) {
	gw := spinSpec("gw")
	top, err := NewTopology(1, &gw, []SegmentSpec{
		{Name: "west", Model: netdev.EthernetModel(), Subnet: view.IP4{10, 0, 1, 0},
			Hosts: []HostSpec{spinSpec("client")}},
		{Name: "east", Model: netdev.EthernetModel(), Subnet: view.IP4{10, 0, 2, 0}, Switched: true,
			Hosts: []HostSpec{spinSpec("server")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	top.PrimeARP()
	client := hostNamed(top.Segments, "client")
	server := hostNamed(top.Segments, "server")
	if client.Addr() != (view.IP4{10, 0, 1, 1}) || server.Addr() != (view.IP4{10, 0, 2, 1}) {
		t.Fatalf("addressing: client %v server %v", client.Addr(), server.Addr())
	}

	var echo *UDPApp
	echo, err = server.OpenUDP(UDPAppOptions{Port: 7}, func(tk *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		_ = echo.Send(tk, src, srcPort, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	replies := 0
	var capp *UDPApp
	capp, err = client.OpenUDP(UDPAppOptions{}, func(tk *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		replies++
	})
	if err != nil {
		t.Fatal(err)
	}
	client.Spawn("send", func(tk *sim.Task) {
		_ = capp.Send(tk, server.Addr(), 7, []byte("across the gateway"))
	})
	top.Sim.Run()

	if replies != 1 {
		t.Fatalf("client got %d replies, want 1", replies)
	}
	gs := top.Gateway.Stats()
	if gs.Forwarded != 2 {
		t.Errorf("gateway forwarded %d datagrams, want 2 (request + reply)", gs.Forwarded)
	}
	if gs.NoRoute != 0 || gs.TTLExpired != 0 || gs.Drops != 0 {
		t.Errorf("gateway drops: %+v", gs)
	}
	// The switched segment carried the forwarded request and the reply.
	if sw := top.Segments[1].Switch; sw.Stats().RxFrames == 0 {
		t.Error("east switch saw no traffic")
	}
}

// The gateway's interface stacks share one CPU: forwarding work on one
// subnet contends with forwarding on the other.
func TestTopologyGatewaySharesOneCPU(t *testing.T) {
	gw := spinSpec("gw")
	top, err := NewTopology(1, &gw, []SegmentSpec{
		{Name: "a", Model: netdev.EthernetModel(), Subnet: view.IP4{10, 0, 1, 0}, Hosts: []HostSpec{spinSpec("h1")}},
		{Name: "b", Model: netdev.EthernetModel(), Subnet: view.IP4{10, 0, 2, 0}, Hosts: []HostSpec{spinSpec("h2")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, iface := range top.Gateway.Ifaces {
		if iface.Host.CPU != top.Gateway.CPU {
			t.Fatal("gateway interface stack has its own CPU")
		}
	}
}

// TestTopologyNoRouteCounted sends to an address no segment owns: the
// gateway counts it in NoRoute and consumes it, with or without a fabric
// pipeline, so IP never sees it as NotForUs.
func TestTopologyNoRouteCounted(t *testing.T) {
	for _, tc := range []struct {
		name     string
		pipeline *fabric.Pipeline
	}{
		{"no-pipeline", nil},
		{"empty-pipeline", fabric.NewPipeline("empty", filter.BaseIP, event.QuarantinePolicy{})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gw := spinSpec("gw")
			top, err := NewTopology(1, &gw, []SegmentSpec{
				{Name: "a", Model: netdev.EthernetModel(), Subnet: view.IP4{10, 0, 1, 0}, Hosts: []HostSpec{spinSpec("h1")}},
				{Name: "b", Model: netdev.EthernetModel(), Subnet: view.IP4{10, 0, 2, 0}, Hosts: []HostSpec{spinSpec("h2")}},
			})
			if err != nil {
				t.Fatal(err)
			}
			top.Gateway.InstallPipeline(tc.pipeline)
			top.PrimeARP()
			h1 := hostNamed(top.Segments, "h1")
			capp, err := h1.OpenUDP(UDPAppOptions{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			h1.Spawn("send", func(tk *sim.Task) {
				_ = capp.Send(tk, view.IP4{10, 9, 9, 9}, 7, []byte("to nowhere"))
			})
			top.Sim.Run()
			if gs := top.Gateway.Stats(); gs != (GatewayStats{NoRoute: 1}) {
				t.Errorf("gateway stats %+v, want NoRoute=1 and nothing else", gs)
			}
			if n := top.Segments[0].GW.IP.Stats().NotForUs; n != 0 {
				t.Errorf("gateway ingress NotForUs = %d, want 0", n)
			}
		})
	}
}

// A single switched segment needs no gateway; unicast between two hosts is
// forwarded by the fabric, not flooded to bystanders.
func TestTopologySingleSwitchedSegment(t *testing.T) {
	top, err := NewTopology(1, nil, []SegmentSpec{
		{Name: "lan", Model: netdev.EthernetModel(), Subnet: view.IP4{10, 0, 0, 0}, Switched: true,
			Hosts: []HostSpec{spinSpec("a"), spinSpec("b"), spinSpec("c")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	top.PrimeARP()
	a, b, c := hostNamed(top.Segments, "a"), hostNamed(top.Segments, "b"), hostNamed(top.Segments, "c")
	got := 0
	var echo *UDPApp
	echo, err = b.OpenUDP(UDPAppOptions{Port: 9}, func(tk *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		got++
		_ = echo.Send(tk, src, srcPort, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	capp, err := a.OpenUDP(UDPAppOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// First exchange: a's frame floods (b unknown), b's reply teaches the
	// switch where b lives.
	a.Spawn("send", func(tk *sim.Task) { _ = capp.Send(tk, b.Addr(), 9, []byte("hi")) })
	top.Sim.Run()
	// Subsequent unicast is forwarded out b's port alone.
	for i := 0; i < 4; i++ {
		a.Spawn("send", func(tk *sim.Task) { _ = capp.Send(tk, b.Addr(), 9, []byte("hi")) })
	}
	top.Sim.Run()
	if got != 5 {
		t.Fatalf("b received %d datagrams, want 5", got)
	}
	cSeen := c.NIC.Stats().RxFrames + c.NIC.Stats().RxFiltered + c.NIC.Stats().RxErrors
	if cSeen != 1 {
		t.Errorf("bystander saw %d frames on a switched segment, want only the initial flood", cSeen)
	}
}

// TestNetworkIsOneBusSegment pins the one address scheme: NewNetwork's hosts
// are those of a one-bus-segment NewTopology on 10.0.0.0/24 — names, MACs,
// addresses, masks, no gateway, the same device model — and a Network's
// MACs stay 02:00:00:00:00:i.
func TestNetworkIsOneBusSegment(t *testing.T) {
	specs := []HostSpec{spinSpec("a"), spinSpec("b"), spinSpec("c")}
	n, err := NewNetwork(1, netdev.EthernetModel(), specs)
	if err != nil {
		t.Fatal(err)
	}
	top, err := NewTopology(1, nil, []SegmentSpec{
		{Name: "lan", Model: netdev.EthernetModel(), Subnet: view.IP4{10, 0, 0, 0}, Hosts: specs},
	})
	if err != nil {
		t.Fatal(err)
	}
	seg := top.Segments[0]
	if len(n.Hosts) != len(specs) || len(seg.Hosts) != len(specs) {
		t.Fatalf("%d network hosts and %d segment hosts, want %d", len(n.Hosts), len(seg.Hosts), len(specs))
	}
	for i, h := range n.Hosts {
		got, want := h.cfg, seg.Hosts[i].cfg
		if got.Link != n.Link || want.Link != seg.Link {
			t.Errorf("host %d is not on its bus", i)
		}
		got.Link, want.Link = nil, nil
		if got != want {
			t.Errorf("host %d: network %+v, segment %+v", i, got, want)
		}
		if mac := h.NIC.MAC(); mac != (view.MAC{0x02, 0x00, 0x00, 0x00, 0x00, byte(i + 1)}) {
			t.Errorf("host %d MAC %v, want 02:00:00:00:00:%02x", i, mac, i+1)
		}
		if got.Addr != (view.IP4{10, 0, 0, byte(i + 1)}) || got.Mask != mask24 || got.Gateway != (view.IP4{}) {
			t.Errorf("host %d: addr %v mask %v gateway %v", i, got.Addr, got.Mask, got.Gateway)
		}
	}
}

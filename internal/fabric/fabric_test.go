package fabric

import (
	"testing"

	"plexus/internal/event"
	"plexus/internal/filter"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// mkUDP builds an IP-framed UDP datagram with valid IP and UDP checksums.
func mkUDP(src, dst view.IP4, sport, dport uint16, payload int) []byte {
	b := make([]byte, view.IPv4MinHdrLen+view.UDPHdrLen+payload)
	b[0] = 0x45
	ipv, _ := view.IPv4(b)
	ipv.SetTotalLen(len(b))
	ipv.SetTTL(64)
	ipv.SetProto(view.IPProtoUDP)
	ipv.SetSrc(src)
	ipv.SetDst(dst)
	ipv.ComputeChecksum()
	u := b[view.IPv4MinHdrLen:]
	uv, _ := view.UDP(u)
	uv.SetSrcPort(sport)
	uv.SetDstPort(dport)
	uv.SetLength(len(u))
	uv.SetChecksum(0)
	uv.SetChecksum(udpChecksum(b))
	return b
}

// udpChecksum computes the UDP checksum (pseudo-header included) of an
// IP-framed datagram, with the checksum field as stored.
func udpChecksum(b []byte) uint16 {
	ipv, _ := view.IPv4(b)
	u := b[ipv.HdrLen():]
	a := view.PseudoHeader(ipv.Src(), ipv.Dst(), view.IPProtoUDP, len(u))
	a.Add(u)
	return a.Fold()
}

// checksumsValid verifies both the IP header checksum and the UDP checksum.
func checksumsValid(t *testing.T, b []byte) {
	t.Helper()
	ipv, _ := view.IPv4(b)
	if !ipv.VerifyChecksum() {
		t.Error("IP header checksum invalid after rewrite")
	}
	if udpChecksum(b) != 0 {
		t.Error("UDP checksum invalid after rewrite")
	}
}

func wpkt(b []byte) *Packet {
	return &Packet{Buf: b, Base: filter.BaseIP, Writable: true}
}

// exec runs p through pl on a task, as the gateway does.
func exec(pl *Pipeline, p *Packet) Verdict {
	s := sim.New(1)
	var v Verdict
	sim.NewCPU(s, "gw").Submit(sim.PrioKernel, "fabric", func(t *sim.Task) { v = pl.Exec(t, p) })
	s.Run()
	return v
}

func TestRewritePreservesChecksums(t *testing.T) {
	b := mkUDP(view.IP4{10, 0, 1, 5}, view.IP4{10, 0, 9, 9}, 3333, 7, 32)
	p := wpkt(b)
	if !RewriteAddrPort(p, false, view.IP4{10, 0, 2, 3}, 0, false) {
		t.Fatal("dst rewrite refused")
	}
	checksumsValid(t, b)
	if !RewriteAddrPort(p, true, view.IP4{10, 0, 2, 200}, 21000, true) {
		t.Fatal("src rewrite refused")
	}
	checksumsValid(t, b)
	ipv, _ := view.IPv4(b)
	if ipv.Dst() != (view.IP4{10, 0, 2, 3}) || ipv.Src() != (view.IP4{10, 0, 2, 200}) {
		t.Fatalf("addresses: src=%v dst=%v", ipv.Src(), ipv.Dst())
	}
	uv, _ := view.UDP(b[ipv.HdrLen():])
	if uv.SrcPort() != 21000 || uv.DstPort() != 7 {
		t.Fatalf("ports: %d->%d", uv.SrcPort(), uv.DstPort())
	}
}

func TestRewriteReadOnlyPanics(t *testing.T) {
	b := mkUDP(view.IP4{10, 0, 1, 5}, view.IP4{10, 0, 9, 9}, 3333, 7, 0)
	p := &Packet{Buf: b, Base: filter.BaseIP} // not writable
	defer func() {
		if recover() == nil {
			t.Fatal("rewrite of read-only packet did not panic")
		}
	}()
	RewriteAddrPort(p, false, view.IP4{10, 0, 2, 3}, 0, false)
}

func TestPipelineVerdictsAndHits(t *testing.T) {
	pl := NewPipeline("t", filter.BaseIP, event.QuarantinePolicy{})
	acl, err := NewACL("acl", filter.BaseIP, []ACLEntry{
		{Name: "permit-svc", Match: "ip.dst == 10.0.9.9 && udp.dport == 7", Permit: true},
		{Name: "deny-telnet", Match: "tcp.dport == 23", Permit: false},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	mark := 0
	after := NewTable("after")
	r, _ := NewRule("count", "", filter.BaseIP, ActionFunc{Label: "count",
		Fn: func(_ *sim.Task, p *Packet) Verdict { mark++; return NextTable }})
	after.Add(r)
	pl.Add(acl).Add(after)

	svc := mkUDP(view.IP4{10, 0, 1, 5}, view.IP4{10, 0, 9, 9}, 3333, 7, 0)
	other := mkUDP(view.IP4{10, 0, 1, 5}, view.IP4{10, 0, 9, 9}, 3333, 99, 0)

	if v := exec(pl, wpkt(svc)); v != Accept {
		t.Fatalf("service packet verdict %v", v)
	}
	if mark != 1 {
		t.Fatalf("permit did not continue to next table: mark=%d", mark)
	}
	if v := exec(pl, wpkt(other)); v != Drop {
		t.Fatalf("default-deny verdict %v", v)
	}
	if mark != 1 {
		t.Fatal("dropped packet still reached later table")
	}
	snap := pl.Snapshot()
	wantHits := map[string]uint64{"permit-svc": 1, "deny-telnet": 0, "default-deny": 1, "count": 1}
	for _, rs := range snap {
		if want, ok := wantHits[rs.Name]; ok && rs.Hits != want {
			t.Errorf("rule %s hits=%d want %d", rs.Name, rs.Hits, want)
		}
	}
	if pl.Stats().Drops != 1 || pl.Stats().Packets != 2 {
		t.Errorf("stats %+v", pl.Stats())
	}
}

func TestSandboxQuarantinesRepeatOffender(t *testing.T) {
	pl := NewPipeline("t", filter.BaseIP, event.QuarantinePolicy{Threshold: 3})
	tb := NewTable("svc")
	bad, _ := NewRule("bad", "", filter.BaseIP, ActionFunc{Label: "bad",
		Fn: func(_ *sim.Task, p *Packet) Verdict { panic("rogue fabric program") }})
	good := 0
	ok, _ := NewRule("good", "", filter.BaseIP, ActionFunc{Label: "good",
		Fn: func(_ *sim.Task, p *Packet) Verdict { good++; return NextTable }})
	tb.Add(bad).Add(ok)
	pl.Add(tb)

	b := mkUDP(view.IP4{10, 0, 1, 5}, view.IP4{10, 0, 2, 9}, 1, 2, 0)
	for i := 0; i < 5; i++ {
		if v := exec(pl, wpkt(b)); v != Accept {
			t.Fatalf("packet %d: verdict %v (panic escaped or dropped)", i, v)
		}
	}
	// The panicking rule fired 3 times, was quarantined, and the remaining
	// packets skipped it; the good rule saw every packet.
	if got := pl.Stats().Faults; got != 3 {
		t.Errorf("faults = %d, want 3", got)
	}
	if pl.Stats().Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", pl.Stats().Quarantined)
	}
	if good != 5 {
		t.Errorf("good rule ran %d times, want 5", good)
	}
	snap := pl.Snapshot()
	if !snap[0].Quarantined || snap[0].Faults != 3 {
		t.Errorf("bad rule snapshot %+v", snap[0])
	}
	if pl.Quarantined() {
		t.Error("pipeline reported fully quarantined with a live rule")
	}
}

func TestFullyQuarantinedPipelineIsInert(t *testing.T) {
	pl := NewPipeline("t", filter.BaseIP, event.QuarantinePolicy{Threshold: 1})
	tb := NewTable("svc")
	bad, _ := NewRule("bad", "", filter.BaseIP, ActionFunc{Label: "bad",
		Fn: func(_ *sim.Task, p *Packet) Verdict { panic("boom") }})
	tb.Add(bad)
	pl.Add(tb)
	b := mkUDP(view.IP4{10, 0, 1, 5}, view.IP4{10, 0, 2, 9}, 1, 2, 0)
	exec(pl, wpkt(b))
	if !pl.Quarantined() {
		t.Fatal("single-rule pipeline not quarantined after threshold")
	}
	if v := exec(pl, wpkt(b)); v != Accept {
		t.Fatalf("quarantined pipeline verdict %v, want Accept (plain forwarding)", v)
	}
}

func TestNATDeterministicMapping(t *testing.T) {
	natAddr := view.IP4{10, 0, 2, 200}
	n, tb, err := NewNAT("nat", filter.BaseIP, NATConfig{
		Addr: natAddr, InsideCIDR: "10.0.1.0/24",
	})
	if err != nil {
		t.Fatal(err)
	}
	n.max = 2
	pl := NewPipeline("t", filter.BaseIP, event.QuarantinePolicy{}).Add(tb)

	out := func(host byte, sport uint16) []byte {
		return mkUDP(view.IP4{10, 0, 1, host}, view.IP4{10, 0, 2, 9}, sport, 7, 8)
	}
	b1 := out(5, 3000)
	exec(pl, wpkt(b1))
	ipv, _ := view.IPv4(b1)
	uv, _ := view.UDP(b1[ipv.HdrLen():])
	if ipv.Src() != natAddr || uv.SrcPort() != 20000 {
		t.Fatalf("first flow mapped to %v:%d, want %v:20000", ipv.Src(), uv.SrcPort(), natAddr)
	}
	checksumsValid(t, b1)

	// Same flow again: same mapping, no new entry.
	b1b := out(5, 3000)
	exec(pl, wpkt(b1b))
	uv2, _ := view.UDP(b1b[view.IPv4MinHdrLen:])
	if uv2.SrcPort() != 20000 || n.Occupancy() != 1 {
		t.Fatalf("repeat flow: port %d occupancy %d", uv2.SrcPort(), n.Occupancy())
	}
	// Second flow: next port.
	b2 := out(6, 3000)
	exec(pl, wpkt(b2))
	uv3, _ := view.UDP(b2[view.IPv4MinHdrLen:])
	if uv3.SrcPort() != 20001 || n.Occupancy() != 2 {
		t.Fatalf("second flow: port %d occupancy %d", uv3.SrcPort(), n.Occupancy())
	}
	// Table full: third flow dropped.
	if v := exec(pl, wpkt(out(7, 3000))); v != Drop || n.Exhausted() != 1 {
		t.Fatalf("exhaustion: verdict %v exhausted %d", v, n.Exhausted())
	}

	// Reply to the first mapping translates back.
	reply := mkUDP(view.IP4{10, 0, 2, 9}, natAddr, 7, 20000, 8)
	exec(pl, wpkt(reply))
	rv, _ := view.IPv4(reply)
	ru, _ := view.UDP(reply[rv.HdrLen():])
	if rv.Dst() != (view.IP4{10, 0, 1, 5}) || ru.DstPort() != 3000 {
		t.Fatalf("reply translated to %v:%d", rv.Dst(), ru.DstPort())
	}
	checksumsValid(t, reply)
	// Reply to an unallocated port is dropped.
	if v := exec(pl, wpkt(mkUDP(view.IP4{10, 0, 2, 9}, natAddr, 7, 29999, 0))); v != Drop {
		t.Fatalf("unmatched inbound verdict %v", v)
	}
	if n.Unmatched() != 1 {
		t.Errorf("unmatched = %d", n.Unmatched())
	}
}

func TestLBConsistentHashingAffinity(t *testing.T) {
	pool := []view.IP4{{10, 0, 2, 1}, {10, 0, 2, 2}, {10, 0, 2, 3}, {10, 0, 2, 4}}
	lb, _, err := NewLB("lb", filter.BaseIP, LBConfig{
		VIP: view.IP4{10, 0, 9, 9}, Port: 7, Servers: pool, PoolCIDR: "10.0.2.0/24",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Record the assignment of many flows, grow the pool, and check that
	// flows mapping to surviving servers did not move — and that only
	// roughly 1/5 of flows moved at all.
	type flow struct{ ft FlowTuple }
	flows := make([]flow, 0, 1000)
	for h := byte(1); h <= 250; h++ {
		for sp := uint16(3000); sp < 3004; sp++ {
			flows = append(flows, flow{FlowTuple{
				Src: view.IP4{10, 0, 1, h}.Uint32(), Dst: lb.vip.Uint32(),
				Proto: view.IPProtoUDP, SPort: sp, DPort: 7,
			}})
		}
	}
	before := make([]view.IP4, len(flows))
	for i, f := range flows {
		before[i] = lb.servers[lb.Pick(f.ft.Hash())]
	}
	grown := append(append([]view.IP4{}, pool...), view.IP4{10, 0, 2, 5})
	lb.SetServers(grown)
	moved := 0
	for i, f := range flows {
		after := lb.servers[lb.Pick(f.ft.Hash())]
		if after != before[i] {
			moved++
			if after != (view.IP4{10, 0, 2, 5}) {
				t.Fatalf("flow %d moved between surviving servers: %v -> %v", i, before[i], after)
			}
		}
	}
	frac := float64(moved) / float64(len(flows))
	if frac < 0.05 || frac > 0.40 {
		t.Errorf("pool grow 4->5 moved %.0f%% of flows, want ~20%%", 100*frac)
	}
	// Balance: each server serves a nontrivial share.
	counts := map[view.IP4]int{}
	for _, f := range flows {
		counts[lb.servers[lb.Pick(f.ft.Hash())]]++
	}
	for _, s := range grown {
		if counts[s] < len(flows)/20 {
			t.Errorf("server %v starved: %d/%d flows", s, counts[s], len(flows))
		}
	}
}

func TestLBRewritesAndReplies(t *testing.T) {
	pool := []view.IP4{{10, 0, 2, 1}, {10, 0, 2, 2}}
	vip := view.IP4{10, 0, 9, 9}
	lb, tb, err := NewLB("lb", filter.BaseIP, LBConfig{
		VIP: vip, Port: 7, Servers: pool, PoolCIDR: "10.0.2.0/24",
	})
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPipeline("t", filter.BaseIP, event.QuarantinePolicy{}).Add(tb)
	req := mkUDP(view.IP4{10, 0, 1, 5}, vip, 3000, 7, 16)
	exec(pl, wpkt(req))
	ipv, _ := view.IPv4(req)
	srv := ipv.Dst()
	if srv != pool[0] && srv != pool[1] {
		t.Fatalf("VIP rewritten to %v, not a pool member", srv)
	}
	checksumsValid(t, req)
	hits := lb.Hits()
	if hits[0]+hits[1] != 1 {
		t.Fatalf("hits %v", hits)
	}
	reply := mkUDP(srv, view.IP4{10, 0, 1, 5}, 7, 3000, 16)
	exec(pl, wpkt(reply))
	rv, _ := view.IPv4(reply)
	if rv.Src() != vip {
		t.Fatalf("reply source %v, want VIP", rv.Src())
	}
	checksumsValid(t, reply)
}

func TestECMPSpreadsFlowsStably(t *testing.T) {
	e, r, err := NewECMP("ecmp", "ip.proto == 17", filter.BaseIP, 3)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPipeline("t", filter.BaseIP, event.QuarantinePolicy{}).Add(NewTable("ecmp").Add(r))
	paths := map[uint16]int{}
	for sp := uint16(3000); sp < 3120; sp++ {
		b := mkUDP(view.IP4{10, 0, 1, 5}, view.IP4{10, 0, 2, 9}, sp, 7, 0)
		p := wpkt(b)
		exec(pl, p)
		paths[sp] = p.Path
		// Same flow must take the same path every time.
		p2 := wpkt(mkUDP(view.IP4{10, 0, 1, 5}, view.IP4{10, 0, 2, 9}, sp, 7, 0))
		exec(pl, p2)
		if p2.Path != p.Path {
			t.Fatalf("flow sport=%d flapped paths %d -> %d", sp, p.Path, p2.Path)
		}
	}
	seen := map[int]int{}
	for _, p := range paths {
		if p < 0 || p >= 3 {
			t.Fatalf("path %d out of range", p)
		}
		seen[p]++
	}
	for i := 0; i < 3; i++ {
		if seen[i] == 0 {
			t.Errorf("path %d never chosen: %v", i, seen)
		}
	}
	total := uint64(0)
	for _, h := range e.Hits() {
		total += h
	}
	if total != 240 {
		t.Errorf("ECMP hit total %d, want 240", total)
	}
}

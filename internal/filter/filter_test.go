package filter

import (
	"strings"
	"testing"

	"plexus/internal/mbuf"
	"plexus/internal/view"
)

// mkPacket builds an Ethernet+IP+transport packet with the given fields.
type pktSpec struct {
	etherType uint16
	proto     uint8
	src, dst  view.IP4
	ttl       uint8
	sport     uint16
	dport     uint16
	tcpFlags  uint8
	fragOff   int
	moreFrag  bool
	payload   int
}

func mkPacket(t testing.TB, s pktSpec) *mbuf.Mbuf {
	if s.etherType == 0 {
		s.etherType = view.EtherTypeIPv4
	}
	if s.ttl == 0 {
		s.ttl = 64
	}
	thl := 8
	if s.proto == view.IPProtoTCP {
		thl = 20
	}
	b := make([]byte, view.EthernetHdrLen+20+thl+s.payload)
	eth, _ := view.Ethernet(b)
	eth.SetDst(view.MAC{2, 0, 0, 0, 0, 2})
	eth.SetSrc(view.MAC{2, 0, 0, 0, 0, 1})
	eth.SetEtherType(s.etherType)
	ipb := b[view.EthernetHdrLen:]
	ipb[0] = 0x45
	ipv, _ := view.IPv4(ipb)
	ipv.SetTotalLen(len(ipb))
	flags := uint16(0)
	if s.moreFrag {
		flags = view.IPFlagMF
	}
	ipv.SetFlagsFrag(flags, s.fragOff)
	ipv.SetTTL(s.ttl)
	ipv.SetProto(s.proto)
	ipv.SetSrc(s.src)
	ipv.SetDst(s.dst)
	ipv.ComputeChecksum()
	tb := ipb[20:]
	tb[0], tb[1] = byte(s.sport>>8), byte(s.sport)
	tb[2], tb[3] = byte(s.dport>>8), byte(s.dport)
	if s.proto == view.IPProtoTCP {
		tb[12] = 5 << 4
		tb[13] = s.tcpFlags
	}
	m := mbuf.NewPool().FromBytes(b, 0)
	if t != nil {
		t.Cleanup(m.Free)
	}
	return m
}

func mustParse(t *testing.T, src string, base Base) *Filter {
	t.Helper()
	f, err := Parse(src, base)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return f
}

// mustCompile compiles f's source to VM bytecode, the differential twin of f.
func mustCompile(t *testing.T, f *Filter) *Program {
	t.Helper()
	p, err := CompileInterpreted(f.src, f.base)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBasicMatching(t *testing.T) {
	udp7 := mkPacket(t, pktSpec{proto: view.IPProtoUDP, src: view.IP4{10, 0, 0, 1}, dst: view.IP4{10, 0, 0, 2}, sport: 5000, dport: 7})
	tcp80 := mkPacket(t, pktSpec{proto: view.IPProtoTCP, src: view.IP4{10, 0, 0, 3}, dst: view.IP4{10, 0, 0, 2}, sport: 40000, dport: 80, tcpFlags: view.TCPSyn})

	cases := []struct {
		src       string
		wantUDP7  bool
		wantTCP80 bool
	}{
		{"ether.type == 0x0800", true, true},
		{"ip.proto == 17", true, false},
		{"ip.proto == 6", false, true},
		{"udp.dport == 7", true, false},
		{"tcp.dport == 80", false, true},
		{"tcp.dport == 80 && tcp.flags == 2", false, true},
		{"ip.src == 10.0.0.1", true, false},
		{"ip.src == 10.0.0.1 || ip.src == 10.0.0.3", true, true},
		{"!ip.frag", true, true},
		{"ip.frag", false, false},
		{"udp.dport < 10", true, false},
		{"udp.dport != 7", false, false}, // TCP packet: udp.dport inapplicable ⇒ false
		{"ip.ttl >= 64 && ip.ttl <= 64", true, true},
	}
	for _, c := range cases {
		f := mustParse(t, c.src, BaseEthernet)
		if got := f.Match(udp7); got != c.wantUDP7 {
			t.Errorf("%q on udp7: got %v, want %v", c.src, got, c.wantUDP7)
		}
		if got := f.Match(tcp80); got != c.wantTCP80 {
			t.Errorf("%q on tcp80: got %v, want %v", c.src, got, c.wantTCP80)
		}
	}
}

func TestCIDRMatching(t *testing.T) {
	in24 := mkPacket(t, pktSpec{proto: view.IPProtoUDP, src: view.IP4{10, 0, 1, 7}, dst: view.IP4{10, 0, 1, 200}, dport: 7})
	out24 := mkPacket(t, pktSpec{proto: view.IPProtoUDP, src: view.IP4{10, 0, 2, 7}, dst: view.IP4{192, 168, 0, 1}, dport: 7})

	cases := []struct {
		src       string
		wantIn24  bool
		wantOut24 bool
	}{
		{"ip.dst in 10.0.1.0/24", true, false},
		{"ip.src in 10.0.1.0/24", true, false},
		{"ip.dst in 10.0.0.0/16", true, false},
		{"ip.dst in 0.0.0.0/0", true, true},
		{"ip.dst in 192.168.0.1/32", false, true},
		{"ip.dst in 10.0.1.7/24", true, false}, // host bits masked off
		{"!(ip.dst in 10.0.1.0/24)", false, true},
		{"ip.src in 10.0.0.0/8 && udp.dport == 7", true, true},
	}
	for _, c := range cases {
		f := mustParse(t, c.src, BaseEthernet)
		prog := mustCompile(t, f)
		if got := f.Match(in24); got != c.wantIn24 {
			t.Errorf("%q on in24: got %v, want %v", c.src, got, c.wantIn24)
		}
		if got := f.Match(out24); got != c.wantOut24 {
			t.Errorf("%q on out24: got %v, want %v", c.src, got, c.wantOut24)
		}
		// Interpreted backend must agree.
		if got := prog.Run(nil, in24); got != c.wantIn24 {
			t.Errorf("VM %q on in24: got %v, want %v", c.src, got, c.wantIn24)
		}
		if got := prog.Run(nil, out24); got != c.wantOut24 {
			t.Errorf("VM %q on out24: got %v, want %v", c.src, got, c.wantOut24)
		}
	}
}

func TestCIDRParseErrors(t *testing.T) {
	bad := []string{
		"ip.dst in 10.0.1.0/33",
		"ip.dst in 10.0.1.0/",
		"ip.dst in 7",
		"ip.dst in 10.0.1.0",
		"ip.dst in",
		"in 10.0.1.0/24",
	}
	for _, src := range bad {
		if _, err := Parse(src, BaseEthernet); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

func TestMatchBytes(t *testing.T) {
	m := mkPacket(t, pktSpec{proto: view.IPProtoUDP, src: view.IP4{10, 0, 1, 7}, dst: view.IP4{10, 0, 2, 9}, dport: 53})
	f := mustParse(t, "ip.dst in 10.0.2.0/24 && udp.dport == 53", BaseEthernet)
	if !f.MatchBytes(m.Bytes()) {
		t.Fatal("MatchBytes rejected matching buffer")
	}
	p := mustCompile(t, f)
	if !p.RunBytes(nil, m.Bytes()) {
		t.Fatal("RunBytes rejected matching buffer")
	}
	if f.MatchBytes(nil) || p.RunBytes(nil, nil) {
		t.Fatal("empty buffer matched")
	}
}

func TestBaseIPFraming(t *testing.T) {
	// A packet that starts at the IP header (as seen on IP.PacketRecv).
	full := mkPacket(t, pktSpec{proto: view.IPProtoUDP, src: view.IP4{10, 0, 0, 1}, dst: view.IP4{10, 0, 0, 2}, dport: 9})
	full.Adj(view.EthernetHdrLen)
	f := mustParse(t, "ip.proto == 17 && udp.dport == 9", BaseIP)
	if !f.Match(full) {
		t.Fatal("BaseIP filter rejected matching packet")
	}
	// Link-layer fields are invisible at BaseIP.
	g := mustParse(t, "ether.type == 0x0800", BaseIP)
	if g.Match(full) {
		t.Fatal("ether.type matched at BaseIP")
	}
}

func TestFragmentTransportFieldsInapplicable(t *testing.T) {
	frag := mkPacket(t, pktSpec{proto: view.IPProtoUDP, dst: view.IP4{10, 0, 0, 2}, dport: 9, fragOff: 1480})
	f := mustParse(t, "udp.dport == 9", BaseEthernet)
	if f.Match(frag) {
		t.Fatal("non-first fragment matched a port filter (ports are not in later fragments)")
	}
	g := mustParse(t, "ip.frag", BaseEthernet)
	if !g.Match(frag) {
		t.Fatal("ip.frag did not match a fragment")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"ip.bogus == 1",
		"ip.proto = 17",
		"ip.proto == ",
		"ip.proto == 17 &&",
		"(ip.proto == 17",
		"ip.proto == 10.0.0.1.2",
		"ip.proto == 99999999999",
		"ip.proto ==== 17",
		"ip.proto == 17 extra",
		"&& ip.proto == 17",
		"ip.proto & 17",
		"ip.proto | 17",
		"ip.src == 10.0.0.999",
		"ip.proto == 17 $",
	}
	for _, src := range bad {
		if _, err := Parse(src, BaseEthernet); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

func TestOperatorPrecedence(t *testing.T) {
	// && binds tighter than ||.
	p := mkPacket(t, pktSpec{proto: view.IPProtoUDP, src: view.IP4{1, 1, 1, 1}, dst: view.IP4{2, 2, 2, 2}, dport: 9})
	f := mustParse(t, "ip.src == 9.9.9.9 && udp.dport == 9 || ip.src == 1.1.1.1", BaseEthernet)
	if !f.Match(p) {
		t.Fatal("precedence wrong: (a&&b)||c should match via c")
	}
	g := mustParse(t, "ip.src == 9.9.9.9 && (udp.dport == 9 || ip.src == 1.1.1.1)", BaseEthernet)
	if g.Match(p) {
		t.Fatal("parenthesized grouping ignored")
	}
}

func TestFilterStringRoundTrip(t *testing.T) {
	src := "ip.proto == 17 && udp.dport == 7"
	f := mustParse(t, src, BaseEthernet)
	if f.String() != src {
		t.Errorf("String() = %q", f.String())
	}
	if !strings.Contains(f.root.String(), "&&") {
		t.Errorf("AST render: %q", f.root.String())
	}
}

// FuzzVMAgreesWithNative is differential: on any bytes — a well-formed
// frame, a truncated one or garbage — the native evaluator and the
// interpreted VM give every expression of a fixed list the same verdict. The
// seeds are a UDP, TCP and ICMP frame, each whole and fragmented, plus their
// truncations at every header boundary.
func FuzzVMAgreesWithNative(f *testing.F) {
	exprs := []string{
		"ether.type == 0x0800",
		"ip.proto == 17 && udp.dport == 7",
		"ip.proto == 6 && (tcp.dport == 80 || tcp.dport == 8080) && !ip.frag",
		"ip.src == 10.0.0.1 || ip.dst == 10.0.0.1",
		"ip.ttl < 5 || udp.sport >= 1024",
		"!(ip.proto == 6) && ip.len > 40",
		"tcp.flags == 2 || tcp.flags == 18",
		"ip.frag || udp.dport != 9",
	}
	filters := make([]*Filter, len(exprs))
	programs := make([]*Program, len(exprs))
	for i, e := range exprs {
		fl, err := Parse(e, BaseEthernet)
		if err != nil {
			f.Fatalf("%q: %v", e, err)
		}
		p, err := CompileInterpreted(e, BaseEthernet)
		if err != nil {
			f.Fatalf("%q: %v", e, err)
		}
		filters[i], programs[i] = fl, p
	}
	ports := map[uint8]uint16{view.IPProtoUDP: 7, view.IPProtoTCP: 80, view.IPProtoICMP: 0}
	for _, proto := range []uint8{view.IPProtoUDP, view.IPProtoTCP, view.IPProtoICMP} {
		for _, frag := range []bool{false, true} {
			spec := pktSpec{proto: proto, src: view.IP4{10, 0, 0, 1}, dst: view.IP4{10, 0, 0, 2},
				ttl: 4, sport: 1024, dport: ports[proto], tcpFlags: view.TCPSyn}
			if frag {
				spec.fragOff = 1480
			}
			m := mkPacket(nil, spec)
			b := append([]byte(nil), m.Bytes()...)
			m.Free()
			ip := view.EthernetHdrLen
			for _, n := range []int{0, ip - 1, ip, ip + 19, ip + 20, ip + 23, ip + 24, ip + 33, ip + 34, len(b)} {
				if n <= len(b) {
					f.Add(b[:n])
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for i, fl := range filters {
			if native, vm := fl.MatchBytes(b), programs[i].RunBytes(nil, b); native != vm {
				t.Errorf("%q on % x: native %v, VM %v", exprs[i], b, native, vm)
			}
		}
	})
}

func TestVMDisassemblyAndCost(t *testing.T) {
	p, err := CompileInterpreted("ip.proto == 17 && udp.dport == 7", BaseEthernet)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() < 6 {
		t.Errorf("program suspiciously short: %d instrs\n%s", p.Len(), p)
	}
	dis := p.String()
	for _, want := range []string{"LOADF", "PUSH", "CMP", "JZK"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %s:\n%s", want, dis)
		}
	}
}

// Short-circuiting: an AND whose left side fails must not evaluate the right
// side (observable through the instruction count via charged cost).
func TestVMShortCircuit(t *testing.T) {
	m := mkPacket(t, pktSpec{proto: view.IPProtoICMP, dst: view.IP4{10, 0, 0, 2}})
	longAnd, err := CompileInterpreted("ip.proto == 17 && udp.dport == 1 && udp.dport == 2 && udp.dport == 3", BaseEthernet)
	if err != nil {
		t.Fatal(err)
	}
	// Count instructions by running with a cost-tracking shim: use the
	// charge itself.
	cost := runCost(t, longAnd, m)
	full, err := CompileInterpreted("ip.proto == 1", BaseEthernet)
	if err != nil {
		t.Fatal(err)
	}
	base := runCost(t, full, m)
	// The failed AND should execute barely more than a single comparison.
	if cost > 2*base {
		t.Errorf("short-circuit not effective: %v vs single-cmp %v", cost, base)
	}
}

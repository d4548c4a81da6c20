package view

import (
	"errors"
	"strings"
	"testing"
)

func TestMACString(t *testing.T) {
	m := MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	if got := m.String(); got != "de:ad:be:ef:00:01" {
		t.Errorf("MAC.String() = %q", got)
	}
	if !BroadcastMAC.IsBroadcast() || !BroadcastMAC.IsMulticast() {
		t.Error("broadcast MAC classification wrong")
	}
	if m.IsBroadcast() || m.IsMulticast() {
		t.Error("unicast MAC misclassified")
	}
	if !(MAC{0x01, 0, 0x5e, 0, 0, 1}).IsMulticast() {
		t.Error("multicast MAC not detected")
	}
}

func TestIP4Conversions(t *testing.T) {
	a := IP4{10, 1, 2, 3}
	if a.String() != "10.1.2.3" {
		t.Errorf("String = %q", a.String())
	}
	if IP4FromUint32(a.Uint32()) != a {
		t.Error("Uint32 round trip failed")
	}
	if !(IP4{224, 0, 0, 1}).IsMulticast() || (IP4{223, 0, 0, 1}).IsMulticast() {
		t.Error("multicast classification wrong")
	}
	if !(IP4{255, 255, 255, 255}).IsBroadcast() || a.IsBroadcast() {
		t.Error("broadcast classification wrong")
	}
}

func TestEthernetViewRoundTrip(t *testing.T) {
	b := make([]byte, EthernetHdrLen)
	v, err := Ethernet(b)
	if err != nil {
		t.Fatal(err)
	}
	src := MAC{1, 2, 3, 4, 5, 6}
	dst := MAC{7, 8, 9, 10, 11, 12}
	v.SetSrc(src)
	v.SetDst(dst)
	v.SetEtherType(EtherTypeIPv4)
	if v.Src() != src || v.Dst() != dst || v.EtherType() != EtherTypeIPv4 {
		t.Fatal("ethernet field round trip failed")
	}
	if _, err := Ethernet(b[:13]); !errors.Is(err, ErrShort) {
		t.Error("short ethernet buffer accepted")
	}
}

func TestARPViewRoundTrip(t *testing.T) {
	b := make([]byte, ARPHdrLen)
	v, err := ARP(b)
	if err != nil {
		t.Fatal(err)
	}
	sm, tm := MAC{1, 1, 1, 1, 1, 1}, MAC{2, 2, 2, 2, 2, 2}
	si, ti := IP4{10, 0, 0, 1}, IP4{10, 0, 0, 2}
	v.Init(ARPRequest, sm, si, tm, ti)
	if v.HType() != 1 || v.PType() != 0x0800 || v.Op() != ARPRequest {
		t.Error("ARP fixed fields wrong")
	}
	if v.SenderMAC() != sm || v.SenderIP() != si || MAC(v.b[18:24]) != tm || v.TargetIP() != ti {
		t.Error("ARP operand round trip failed")
	}
	if _, err := ARP(b[:27]); !errors.Is(err, ErrShort) {
		t.Error("short ARP accepted")
	}
}

func TestIPv4ViewRoundTrip(t *testing.T) {
	b := make([]byte, IPv4MinHdrLen)
	b[0] = 0x45
	v, err := IPv4(b)
	if err != nil {
		t.Fatal(err)
	}
	v.SetTOS(0x10)
	v.SetTotalLen(1234)
	v.SetID(0xBEEF)
	v.SetFlagsFrag(IPFlagMF, 1480)
	v.SetTTL(64)
	v.SetProto(IPProtoUDP)
	v.SetSrc(IP4{192, 168, 0, 1})
	v.SetDst(IP4{192, 168, 0, 2})
	if v.Version() != 4 || v.HdrLen() != 20 || v.b[1] != 0x10 ||
		v.TotalLen() != 1234 || v.ID() != 0xBEEF || v.TTL() != 64 ||
		v.Proto() != IPProtoUDP {
		t.Fatal("IPv4 scalar fields wrong")
	}
	if !v.MoreFragments() || v.FragOffset() != 1480 {
		t.Fatal("fragment fields wrong")
	}
	if v.Src() != (IP4{192, 168, 0, 1}) || v.Dst() != (IP4{192, 168, 0, 2}) {
		t.Fatal("addresses wrong")
	}
	v.ComputeChecksum()
	if !v.VerifyChecksum() {
		t.Fatal("checksum verify failed after compute")
	}
	b[8] ^= 0xff // corrupt TTL
	if v.VerifyChecksum() {
		t.Fatal("corrupted header passed checksum")
	}
}

func TestIPv4ViewValidation(t *testing.T) {
	if _, err := IPv4(make([]byte, 19)); !errors.Is(err, ErrShort) {
		t.Error("short IPv4 accepted")
	}
	b := make([]byte, 20)
	b[0] = 0x60 // version 6
	if _, err := IPv4(b); err == nil {
		t.Error("version 6 accepted by IPv4 view")
	}
	b[0] = 0x4f // IHL 15 → 60 bytes, buffer only 20
	if _, err := IPv4(b); !errors.Is(err, ErrShort) {
		t.Error("oversized IHL accepted")
	}
	b[0] = 0x41 // IHL 1 → 4 bytes < minimum
	if _, err := IPv4(b); !errors.Is(err, ErrShort) {
		t.Error("undersized IHL accepted")
	}
}

func TestICMPViewRoundTrip(t *testing.T) {
	b := make([]byte, ICMPHdrLen)
	v, err := ICMP(b)
	if err != nil {
		t.Fatal(err)
	}
	v.SetType(ICMPEchoRequest)
	v.SetCode(0)
	v.SetIdent(77)
	v.SetSeq(3)
	v.SetChecksum(0xABCD)
	if v.Type() != ICMPEchoRequest || v.b[1] != 0 || v.Ident() != 77 || v.Seq() != 3 || be16(v.b, 2) != 0xABCD {
		t.Fatal("ICMP round trip failed")
	}
	if _, err := ICMP(b[:7]); !errors.Is(err, ErrShort) {
		t.Error("short ICMP accepted")
	}
}

func TestUDPViewRoundTrip(t *testing.T) {
	b := make([]byte, UDPHdrLen)
	v, err := UDP(b)
	if err != nil {
		t.Fatal(err)
	}
	v.SetSrcPort(1024)
	v.SetDstPort(53)
	v.SetLength(36)
	v.SetChecksum(0x1234)
	if v.SrcPort() != 1024 || v.DstPort() != 53 || v.Length() != 36 || v.Checksum() != 0x1234 {
		t.Fatal("UDP round trip failed")
	}
	if _, err := UDP(b[:7]); !errors.Is(err, ErrShort) {
		t.Error("short UDP accepted")
	}
}

func TestTCPViewRoundTrip(t *testing.T) {
	b := make([]byte, TCPMinHdrLen)
	b[12] = 5 << 4
	v, err := TCP(b)
	if err != nil {
		t.Fatal(err)
	}
	v.SetSrcPort(80)
	v.SetDstPort(40000)
	v.SetSeq(0xDEADBEEF)
	v.SetAck(0xFEEDFACE)
	v.SetFlags(TCPSyn | TCPAck)
	v.SetWindow(8760)
	v.SetChecksum(0x5555)
	if v.SrcPort() != 80 || v.DstPort() != 40000 || v.Seq() != 0xDEADBEEF ||
		v.Ack() != 0xFEEDFACE || v.DataOff() != 20 || v.Window() != 8760 ||
		be16(v.b, 16) != 0x5555 {
		t.Fatal("TCP round trip failed")
	}
	if v.Flags() != TCPSyn|TCPAck {
		t.Fatal("TCP flags wrong")
	}
}

func TestTCPViewValidation(t *testing.T) {
	if _, err := TCP(make([]byte, 19)); !errors.Is(err, ErrShort) {
		t.Error("short TCP accepted")
	}
	b := make([]byte, 20)
	b[12] = 0xf0 // data offset 60 > len
	if _, err := TCP(b); !errors.Is(err, ErrShort) {
		t.Error("oversized data offset accepted")
	}
	b[12] = 0x10 // data offset 4 < 20
	if _, err := TCP(b); !errors.Is(err, ErrShort) {
		t.Error("undersized data offset accepted")
	}
}

func TestFlagString(t *testing.T) {
	if got := FlagString(TCPSyn | TCPAck); got != "SYN|ACK" {
		t.Errorf("FlagString = %q", got)
	}
	if got := FlagString(0); got != "none" {
		t.Errorf("FlagString(0) = %q", got)
	}
	all := FlagString(0x3f)
	for _, w := range []string{"FIN", "SYN", "RST", "PSH", "ACK", "URG"} {
		if !strings.Contains(all, w) {
			t.Errorf("FlagString(all) missing %s: %q", w, all)
		}
	}
}

package view

// Header lengths and the EtherType / IP protocol numbers the stack speaks.
const (
	EthernetHdrLen = 14
	ARPHdrLen      = 28 // IPv4-over-Ethernet ARP
	IPv4MinHdrLen  = 20
	ICMPHdrLen     = 8
	UDPHdrLen      = 8
	TCPMinHdrLen   = 20
)

// EtherType values.
const (
	EtherTypeIPv4      = 0x0800
	EtherTypeARP       = 0x0806
	EtherTypeActiveMsg = 0x88B5 // local-experimental; the paper's active messages demux on the type field
)

// IP protocol numbers.
const (
	IPProtoICMP = 1
	IPProtoTCP  = 6
	IPProtoUDP  = 17
)

// EthernetView is a typed view of an Ethernet II header.
type EthernetView struct{ b []byte }

// Ethernet validates that b holds an Ethernet header and returns its view.
func Ethernet(b []byte) (EthernetView, error) {
	if len(b) < EthernetHdrLen {
		return EthernetView{}, ErrShort
	}
	return EthernetView{b: b}, nil
}

// Dst returns the destination MAC.
func (v EthernetView) Dst() MAC { return MAC(v.b[0:6]) }

// Src returns the source MAC.
func (v EthernetView) Src() MAC { return MAC(v.b[6:12]) }

// EtherType returns the frame type field.
func (v EthernetView) EtherType() uint16 { return be16(v.b, 12) }

// SetDst writes the destination MAC.
func (v EthernetView) SetDst(m MAC) { copy(v.b[0:6], m[:]) }

// SetSrc writes the source MAC.
func (v EthernetView) SetSrc(m MAC) { copy(v.b[6:12], m[:]) }

// SetEtherType writes the frame type field.
func (v EthernetView) SetEtherType(t uint16) { put16(v.b, 12, t) }

// ARP opcodes.
const (
	ARPRequest = 1
	ARPReply   = 2
)

// ARPView is a typed view of an IPv4-over-Ethernet ARP packet.
type ARPView struct{ b []byte }

// ARP validates b and returns an ARP view.
func ARP(b []byte) (ARPView, error) {
	if len(b) < ARPHdrLen {
		return ARPView{}, ErrShort
	}
	return ARPView{b: b}, nil
}

// HType returns the hardware type (1 = Ethernet).
func (v ARPView) HType() uint16 { return be16(v.b, 0) }

// PType returns the protocol type (0x0800 = IPv4).
func (v ARPView) PType() uint16 { return be16(v.b, 2) }

// Op returns the ARP opcode.
func (v ARPView) Op() uint16 { return be16(v.b, 6) }

// SenderMAC returns the sender hardware address.
func (v ARPView) SenderMAC() MAC { return MAC(v.b[8:14]) }

// SenderIP returns the sender protocol address.
func (v ARPView) SenderIP() IP4 { return IP4(v.b[14:18]) }

// TargetIP returns the target protocol address.
func (v ARPView) TargetIP() IP4 { return IP4(v.b[24:28]) }

// Init fills the fixed fields for Ethernet/IPv4 and the operands.
func (v ARPView) Init(op uint16, senderMAC MAC, senderIP IP4, targetMAC MAC, targetIP IP4) {
	put16(v.b, 0, 1)      // Ethernet
	put16(v.b, 2, 0x0800) // IPv4
	v.b[4] = 6            // hlen
	v.b[5] = 4            // plen
	put16(v.b, 6, op)
	copy(v.b[8:14], senderMAC[:])
	copy(v.b[14:18], senderIP[:])
	copy(v.b[18:24], targetMAC[:])
	copy(v.b[24:28], targetIP[:])
}

// IPFlagMF is the more-fragments bit of the flags/fragment-offset word.
const IPFlagMF = 0x2000

// IPv4View is a typed view of an IPv4 header.
type IPv4View struct{ b []byte }

// IPv4 validates that b holds at least a minimal IPv4 header, that the
// version is 4 and that the stated header length fits, then returns a view.
func IPv4(b []byte) (IPv4View, error) {
	if len(b) < IPv4MinHdrLen {
		return IPv4View{}, ErrShort
	}
	v := IPv4View{b: b}
	if v.Version() != 4 {
		return IPv4View{}, errBadVersion
	}
	if hl := v.HdrLen(); hl < IPv4MinHdrLen || hl > len(b) {
		return IPv4View{}, ErrShort
	}
	return v, nil
}

var errBadVersion = errorString("view: IP version is not 4")

type errorString string

func (e errorString) Error() string { return string(e) }

// Version returns the IP version field.
func (v IPv4View) Version() int { return int(v.b[0] >> 4) }

// HdrLen returns the header length in bytes (IHL×4).
func (v IPv4View) HdrLen() int { return int(v.b[0]&0x0f) * 4 }

// TotalLen returns the datagram's total length.
func (v IPv4View) TotalLen() int { return int(be16(v.b, 2)) }

// ID returns the identification field.
func (v IPv4View) ID() uint16 { return be16(v.b, 4) }

// FragOffset returns the fragment offset in bytes.
func (v IPv4View) FragOffset() int { return int(be16(v.b, 6)&0x1fff) * 8 }

// MoreFragments reports the MF bit.
func (v IPv4View) MoreFragments() bool { return be16(v.b, 6)&IPFlagMF != 0 }

// TTL returns the time-to-live.
func (v IPv4View) TTL() uint8 { return v.b[8] }

// Proto returns the payload protocol number.
func (v IPv4View) Proto() uint8 { return v.b[9] }

// Src returns the source address.
func (v IPv4View) Src() IP4 { return IP4(v.b[12:16]) }

// Dst returns the destination address.
func (v IPv4View) Dst() IP4 { return IP4(v.b[16:20]) }

// SetTOS writes the type-of-service byte.
func (v IPv4View) SetTOS(tos uint8) { v.b[1] = tos }

// SetTotalLen writes the total length.
func (v IPv4View) SetTotalLen(n int) { put16(v.b, 2, uint16(n)) }

// SetID writes the identification field.
func (v IPv4View) SetID(id uint16) { put16(v.b, 4, id) }

// SetFlagsFrag writes the raw flags/fragment-offset word; offsetBytes must be
// a multiple of 8.
func (v IPv4View) SetFlagsFrag(flags uint16, offsetBytes int) {
	put16(v.b, 6, flags|uint16(offsetBytes/8))
}

// SetTTL writes the time-to-live.
func (v IPv4View) SetTTL(ttl uint8) { v.b[8] = ttl }

// SetProto writes the payload protocol number.
func (v IPv4View) SetProto(p uint8) { v.b[9] = p }

// SetChecksum writes the header checksum field.
func (v IPv4View) SetChecksum(c uint16) { put16(v.b, 10, c) }

// SetSrc writes the source address.
func (v IPv4View) SetSrc(a IP4) { copy(v.b[12:16], a[:]) }

// SetDst writes the destination address.
func (v IPv4View) SetDst(a IP4) { copy(v.b[16:20], a[:]) }

// ComputeChecksum zeroes the checksum field, recomputes it over the header,
// and writes it back.
func (v IPv4View) ComputeChecksum() {
	v.SetChecksum(0)
	v.SetChecksum(Checksum(v.b[:v.HdrLen()]))
}

// VerifyChecksum reports whether the header checksum is valid.
func (v IPv4View) VerifyChecksum() bool {
	return Checksum(v.b[:v.HdrLen()]) == 0
}

// ICMP message types.
const (
	ICMPEchoReply      = 0
	ICMPDestUnreach    = 3
	ICMPEchoRequest    = 8
	ICMPTimeExceeded   = 11
	ICMPCodePortUnr    = 3 // code under DestUnreach
	ICMPCodeTTLExpired = 0 // code under TimeExceeded
)

// ICMPView is a typed view of an ICMP header.
type ICMPView struct{ b []byte }

// ICMP validates b and returns an ICMP view.
func ICMP(b []byte) (ICMPView, error) {
	if len(b) < ICMPHdrLen {
		return ICMPView{}, ErrShort
	}
	return ICMPView{b: b}, nil
}

// Type returns the ICMP type.
func (v ICMPView) Type() uint8 { return v.b[0] }

// Ident returns the echo identifier.
func (v ICMPView) Ident() uint16 { return be16(v.b, 4) }

// Seq returns the echo sequence number.
func (v ICMPView) Seq() uint16 { return be16(v.b, 6) }

// SetType writes the ICMP type.
func (v ICMPView) SetType(t uint8) { v.b[0] = t }

// SetCode writes the ICMP code.
func (v ICMPView) SetCode(c uint8) { v.b[1] = c }

// SetChecksum writes the checksum field.
func (v ICMPView) SetChecksum(c uint16) { put16(v.b, 2, c) }

// SetIdent writes the echo identifier.
func (v ICMPView) SetIdent(id uint16) { put16(v.b, 4, id) }

// SetSeq writes the echo sequence number.
func (v ICMPView) SetSeq(s uint16) { put16(v.b, 6, s) }

// UDPView is a typed view of a UDP header.
type UDPView struct{ b []byte }

// UDP validates b and returns a UDP view.
func UDP(b []byte) (UDPView, error) {
	if len(b) < UDPHdrLen {
		return UDPView{}, ErrShort
	}
	return UDPView{b: b}, nil
}

// SrcPort returns the source port.
func (v UDPView) SrcPort() uint16 { return be16(v.b, 0) }

// DstPort returns the destination port.
func (v UDPView) DstPort() uint16 { return be16(v.b, 2) }

// Length returns the UDP length field (header + payload).
func (v UDPView) Length() int { return int(be16(v.b, 4)) }

// Checksum returns the checksum field (0 means "not computed").
func (v UDPView) Checksum() uint16 { return be16(v.b, 6) }

// SetSrcPort writes the source port.
func (v UDPView) SetSrcPort(p uint16) { put16(v.b, 0, p) }

// SetDstPort writes the destination port.
func (v UDPView) SetDstPort(p uint16) { put16(v.b, 2, p) }

// SetLength writes the length field.
func (v UDPView) SetLength(n int) { put16(v.b, 4, uint16(n)) }

// SetChecksum writes the checksum field.
func (v UDPView) SetChecksum(c uint16) { put16(v.b, 6, c) }

// TCP header flag bits.
const (
	TCPFin = 1 << 0
	TCPSyn = 1 << 1
	TCPRst = 1 << 2
	TCPPsh = 1 << 3
	TCPAck = 1 << 4
	TCPUrg = 1 << 5
)

// TCPView is a typed view of a TCP header.
type TCPView struct{ b []byte }

// TCP validates that b holds at least a minimal TCP header and that the
// stated data offset fits, then returns a view.
func TCP(b []byte) (TCPView, error) {
	if len(b) < TCPMinHdrLen {
		return TCPView{}, ErrShort
	}
	v := TCPView{b: b}
	if dl := v.DataOff(); dl < TCPMinHdrLen || dl > len(b) {
		return TCPView{}, ErrShort
	}
	return v, nil
}

// SrcPort returns the source port.
func (v TCPView) SrcPort() uint16 { return be16(v.b, 0) }

// DstPort returns the destination port.
func (v TCPView) DstPort() uint16 { return be16(v.b, 2) }

// Seq returns the sequence number.
func (v TCPView) Seq() uint32 { return be32(v.b, 4) }

// Ack returns the acknowledgment number.
func (v TCPView) Ack() uint32 { return be32(v.b, 8) }

// DataOff returns the header length in bytes.
func (v TCPView) DataOff() int { return int(v.b[12]>>4) * 4 }

// Flags returns the flag bits.
func (v TCPView) Flags() uint8 { return v.b[13] & 0x3f }

// Window returns the advertised receive window.
func (v TCPView) Window() uint16 { return be16(v.b, 14) }

// SetSrcPort writes the source port.
func (v TCPView) SetSrcPort(p uint16) { put16(v.b, 0, p) }

// SetDstPort writes the destination port.
func (v TCPView) SetDstPort(p uint16) { put16(v.b, 2, p) }

// SetSeq writes the sequence number.
func (v TCPView) SetSeq(s uint32) { put32(v.b, 4, s) }

// SetAck writes the acknowledgment number.
func (v TCPView) SetAck(a uint32) { put32(v.b, 8, a) }

// SetFlags writes the flag bits.
func (v TCPView) SetFlags(f uint8) { v.b[13] = f & 0x3f }

// SetWindow writes the advertised window.
func (v TCPView) SetWindow(w uint16) { put16(v.b, 14, w) }

// SetChecksum writes the checksum field.
func (v TCPView) SetChecksum(c uint16) { put16(v.b, 16, c) }

// FlagString renders TCP flags like "SYN|ACK" for traces.
func FlagString(f uint8) string {
	names := []struct {
		bit  uint8
		name string
	}{
		{TCPFin, "FIN"}, {TCPSyn, "SYN"}, {TCPRst, "RST"},
		{TCPPsh, "PSH"}, {TCPAck, "ACK"}, {TCPUrg, "URG"},
	}
	out := ""
	for _, n := range names {
		if f&n.bit != 0 {
			if out != "" {
				out += "|"
			}
			out += n.name
		}
	}
	if out == "" {
		return "none"
	}
	return out
}

package view

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: every header view writes back exactly what it reads, for random
// field values — the set/get pairs are inverse bijections on their fields.

func TestQuickEthernetRoundTrip(t *testing.T) {
	f := func(dst, src [6]byte, typ uint16) bool {
		b := make([]byte, EthernetHdrLen)
		v, err := Ethernet(b)
		if err != nil {
			return false
		}
		v.SetDst(MAC(dst))
		v.SetSrc(MAC(src))
		v.SetEtherType(typ)
		return v.Dst() == MAC(dst) && v.Src() == MAC(src) && v.EtherType() == typ
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Error(err)
	}
}

func TestQuickIPv4RoundTrip(t *testing.T) {
	f := func(tos uint8, totalLen, id uint16, offRaw uint16, ttl, proto uint8, src, dst [4]byte, mf, df bool) bool {
		b := make([]byte, IPv4MinHdrLen)
		b[0] = 0x45
		v, err := IPv4(b)
		if err != nil {
			return false
		}
		off := int(offRaw%8192) * 8 // fragment offsets are 8-byte units
		flags := uint16(0)
		if mf {
			flags |= IPFlagMF
		}
		if df {
			flags |= 0x4000 // DF
		}
		v.SetTOS(tos)
		v.SetTotalLen(int(totalLen))
		v.SetID(id)
		v.SetFlagsFrag(flags, off)
		v.SetTTL(ttl)
		v.SetProto(proto)
		v.SetSrc(IP4(src))
		v.SetDst(IP4(dst))
		v.ComputeChecksum()
		return v.b[1] == tos && v.TotalLen() == int(totalLen) && v.ID() == id &&
			v.FragOffset() == off && v.MoreFragments() == mf && (be16(v.b, 6)&0x4000 != 0) == df &&
			v.TTL() == ttl && v.Proto() == proto &&
			v.Src() == IP4(src) && v.Dst() == IP4(dst) &&
			v.VerifyChecksum()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Error(err)
	}
}

func TestQuickUDPRoundTrip(t *testing.T) {
	f := func(sp, dp, ln, ck uint16) bool {
		b := make([]byte, UDPHdrLen)
		v, err := UDP(b)
		if err != nil {
			return false
		}
		v.SetSrcPort(sp)
		v.SetDstPort(dp)
		v.SetLength(int(ln))
		v.SetChecksum(ck)
		return v.SrcPort() == sp && v.DstPort() == dp && v.Length() == int(ln) && v.Checksum() == ck
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Error(err)
	}
}

func TestQuickTCPRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, wnd uint16) bool {
		b := make([]byte, TCPMinHdrLen)
		b[12] = 5 << 4
		v, err := TCP(b)
		if err != nil {
			return false
		}
		v.SetSrcPort(sp)
		v.SetDstPort(dp)
		v.SetSeq(seq)
		v.SetAck(ack)
		v.SetFlags(flags)
		v.SetWindow(wnd)
		return v.SrcPort() == sp && v.DstPort() == dp && v.Seq() == seq && v.Ack() == ack &&
			v.Flags() == flags&0x3f && v.Window() == wnd &&
			v.DataOff() == TCPMinHdrLen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(24))}); err != nil {
		t.Error(err)
	}
}

func TestQuickARPRoundTrip(t *testing.T) {
	f := func(op uint16, sm, tm [6]byte, si, ti [4]byte) bool {
		b := make([]byte, ARPHdrLen)
		v, err := ARP(b)
		if err != nil {
			return false
		}
		v.Init(op, MAC(sm), IP4(si), MAC(tm), IP4(ti))
		return v.Op() == op && v.SenderMAC() == MAC(sm) && v.SenderIP() == IP4(si) &&
			MAC(v.b[18:24]) == MAC(tm) && v.TargetIP() == IP4(ti) &&
			v.HType() == 1 && v.PType() == EtherTypeIPv4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(25))}); err != nil {
		t.Error(err)
	}
}

func TestQuickICMPRoundTrip(t *testing.T) {
	f := func(typ, code uint8, ck, id, seq uint16) bool {
		b := make([]byte, ICMPHdrLen)
		v, err := ICMP(b)
		if err != nil {
			return false
		}
		v.SetType(typ)
		v.SetCode(code)
		v.SetChecksum(ck)
		v.SetIdent(id)
		v.SetSeq(seq)
		return v.Type() == typ && v.b[1] == code && be16(v.b, 2) == ck &&
			v.Ident() == id && v.Seq() == seq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(26))}); err != nil {
		t.Error(err)
	}
}

// Property: IP4 Uint32 round trip and multicast classification agree with the
// definition of the 224.0.0.0/4 range.
func TestQuickIP4Properties(t *testing.T) {
	f := func(raw uint32) bool {
		a := IP4FromUint32(raw)
		if a.Uint32() != raw {
			return false
		}
		return a.IsMulticast() == (raw>>28 == 0xe)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(27))}); err != nil {
		t.Error(err)
	}
}

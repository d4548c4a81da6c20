package tcp

import (
	"bytes"
	"testing"

	"plexus/internal/mbuf"
	"plexus/internal/view"
)

// refSeg is what the reference parser yields: the header fields plus the
// payload bytes.
type refSeg struct {
	seg
	payload []byte
}

// refParse is the linearise-then-parse reference parseHdr is checked against:
// copy the whole segment out of the chain, then read the copy. It is the
// parser this package used before the header was read in place.
func refParse(pkt *mbuf.Mbuf) (refSeg, bool) {
	ipv, err := view.IPv4(pkt.Bytes())
	if err != nil {
		return refSeg{}, false
	}
	hl := ipv.HdrLen()
	segLen := ipv.TotalLen() - hl
	if segLen < 0 {
		return refSeg{}, false
	}
	raw := make([]byte, segLen)
	if err := pkt.CopyTo(hl, raw); err != nil {
		return refSeg{}, false
	}
	tv, err := view.TCP(raw)
	if err != nil {
		return refSeg{}, false
	}
	dataOff := tv.DataOff()
	if dataOff < view.TCPMinHdrLen || dataOff > len(raw) {
		return refSeg{}, false
	}
	r := refSeg{payload: raw[dataOff:]}
	r.seg = seg{
		src:     ipv.Src(),
		srcPort: tv.SrcPort(),
		dstPort: tv.DstPort(),
		seq:     tv.Seq(),
		ack:     tv.Ack(),
		flags:   tv.Flags(),
		wnd:     uint32(tv.Window()),
		payOff:  hl + dataOff,
		payLen:  len(raw) - dataOff,
		wscale:  -1,
	}
	if dataOff > view.TCPMinHdrLen {
		parseOptions(raw[view.TCPMinHdrLen:dataOff], &r.seg)
	}
	return r, true
}

// chain lays dgram out as a packet whose head mbuf holds the first headLen
// bytes (at most one small mbuf's worth), the rest following in its own mbufs.
func chain(p *mbuf.Pool, dgram []byte, headLen int) *mbuf.Mbuf {
	if headLen > len(dgram) {
		headLen = len(dgram)
	}
	if headLen > mbuf.MLEN {
		headLen = mbuf.MLEN
	}
	pkt := p.FromBytes(dgram[:headLen], 0)
	if headLen < len(dgram) {
		if err := pkt.Cat(p.FromBytes(dgram[headLen:], 0)); err != nil {
			panic(err)
		}
	}
	return pkt
}

// checkAgainstRef parses one layout of dgram both ways and fails on any
// difference in verdict, fields or payload bytes. It holds segKey to the same
// reference: a connection's keyed binding must accept exactly the segments a
// guard comparing the parsed 4-tuple would, and a listener's wildcard key
// must name the parsed destination port.
func checkAgainstRef(t *testing.T, p *mbuf.Pool, m *Manager, dgram []byte, headLen int) {
	t.Helper()
	pkt := chain(p, dgram, headLen)
	defer pkt.Free()
	want, wantOK := refParse(pkt)
	got, ok := parseHdr(pkt)
	if ok != wantOK {
		t.Fatalf("head %d: parseHdr ok=%v, reference ok=%v", headLen, ok, wantOK)
	}
	key, wild, keyOK := segKey(pkt)
	if keyOK != wantOK {
		t.Fatalf("head %d: segKey ok=%v, reference ok=%v", headLen, keyOK, wantOK)
	}
	if !ok {
		return
	}
	if wantKey := connKeyOf(want.dstPort, want.src, want.srcPort); key != wantKey {
		t.Fatalf("head %d: segKey %#x, reference 4-tuple key %#x", headLen, key, wantKey)
	}
	if wantWild := connKeyOf(want.dstPort, view.IP4{}, 0); wild != wantWild {
		t.Fatalf("head %d: segKey wildcard %#x, reference listener key %#x", headLen, wild, wantWild)
	}
	if got != want.seg {
		t.Fatalf("head %d: parseHdr\n %+v\nreference\n %+v", headLen, got, want.seg)
	}
	if pay := m.payload(pkt, got); !bytes.Equal(pay, want.payload) {
		t.Fatalf("head %d: payload differs from reference (%d vs %d bytes)", headLen, len(pay), len(want.payload))
	}
}

// dgram builds an IP datagram around a TCP header with the given option
// block and payload. Checksums are left zero: the parser does not read them.
func dgram(opts, payload []byte) []byte {
	b := make([]byte, view.IPv4MinHdrLen+view.TCPMinHdrLen+len(opts)+len(payload))
	b[0] = 0x45
	b[2], b[3] = byte(len(b)>>8), byte(len(b))
	b[8], b[9] = 64, view.IPProtoTCP
	copy(b[12:], []byte{10, 0, 0, 1, 10, 0, 0, 2})
	th := b[view.IPv4MinHdrLen:]
	copy(th, []byte{0x12, 0x34, 0x00, 0x50, 1, 2, 3, 4, 5, 6, 7, 8})
	th[12] = byte((view.TCPMinHdrLen+len(opts))/4) << 4
	th[13] = view.TCPAck | view.TCPPsh
	th[14], th[15] = 0x40, 0x00
	copy(th[view.TCPMinHdrLen:], opts)
	copy(th[view.TCPMinHdrLen+len(opts):], payload)
	return b
}

// parseTestManager never needs its IP layer: the scratch buffer is already
// larger than any segment.
func parseTestManager() *Manager { return &Manager{scratch: make([]byte, 1<<16)} }

func TestParseHdrFields(t *testing.T) {
	p := mbuf.NewPool()
	sack := []byte{optNOP, optNOP, optSack, 10, 0, 0, 0, 100, 0, 0, 0, 200}
	d := dgram(sack, []byte("hello"))
	pkt := chain(p, d, len(d))
	defer pkt.Free()
	s, ok := parseHdr(pkt)
	if !ok {
		t.Fatal("well-formed segment rejected")
	}
	if s.srcPort != 0x1234 || s.dstPort != 80 || s.seq != 0x01020304 || s.ack != 0x05060708 ||
		s.flags != view.TCPAck|view.TCPPsh || s.wnd != 0x4000 ||
		s.src != (view.IP4{10, 0, 0, 1}) {
		t.Errorf("fixed fields wrong: %+v", s)
	}
	if s.payOff != 20+32 || s.payLen != 5 {
		t.Errorf("payload at %d+%d, want 52+5", s.payOff, s.payLen)
	}
	if s.nsack != 1 || s.sack[0] != (sackBlock{100, 200}) {
		t.Errorf("SACK block not parsed: %+v", s)
	}
	if got := parseTestManager().payload(pkt, s); string(got) != "hello" {
		t.Errorf("payload %q", got)
	}
}

// Every place the head mbuf can end — inside the IP header, inside the fixed
// TCP header, inside the options, inside the payload — must parse exactly as
// the linearised copy does.
func TestParseHdrStraddlingHead(t *testing.T) {
	p, m := mbuf.NewPool(), parseTestManager()
	opts := putSynOptions(make([]byte, sackOptsLen), 1460, 7, true)
	for _, d := range [][]byte{
		dgram(nil, nil),
		dgram(nil, bytes.Repeat([]byte{0xab}, 1460)),
		dgram(opts, nil),
		dgram(opts, bytes.Repeat([]byte{0xcd}, 300)),
	} {
		for head := 0; head <= len(d) && head <= mbuf.MLEN; head++ {
			checkAgainstRef(t, p, m, d, head)
		}
	}
	if g := p.Gauge(); g.InUse != 0 {
		t.Errorf("%d mbufs leaked", g.InUse)
	}
}

func TestParseHdrMalformed(t *testing.T) {
	p, m := mbuf.NewPool(), parseTestManager()
	base := func() []byte { return dgram([]byte{optNOP, optNOP, optNOP, optNOP}, []byte("payload")) }
	cases := map[string]func(d []byte) []byte{
		"data offset below 20": func(d []byte) []byte { d[20+12] = 4 << 4; return d },
		"data offset beyond the segment": func(d []byte) []byte {
			d = d[:20+24] // header + options only
			d[2], d[3] = 0, byte(len(d))
			d[20+12] = 15 << 4
			return d
		},
		"total length beyond the chain":     func(d []byte) []byte { d[2], d[3] = 0x10, 0x00; return d },
		"total length below the IP header":  func(d []byte) []byte { d[2], d[3] = 0, 10; return d },
		"segment shorter than a TCP header": func(d []byte) []byte { d[2], d[3] = 0, 20+12; return d },
		"not IPv4":                          func(d []byte) []byte { d[0] = 0x65; return d },
	}
	for name, mutate := range cases {
		d := mutate(base())
		for _, head := range []int{len(d), 30, 45} {
			pkt := chain(p, d, head)
			if _, ok := parseHdr(pkt); ok {
				t.Errorf("%s (head %d): accepted", name, head)
			}
			pkt.Free()
			checkAgainstRef(t, p, m, d, head)
		}
	}
	// An option block that ends mid-option costs only the options: the
	// segment still parses, with nothing taken from the truncated option.
	d := dgram([]byte{optNOP, optNOP, optSack, 10}, []byte("x"))
	pkt := chain(p, d, 41)
	defer pkt.Free()
	s, ok := parseHdr(pkt)
	if !ok || s.nsack != 0 || s.payLen != 1 {
		t.Errorf("truncated option: ok=%v nsack=%d payLen=%d", ok, s.nsack, s.payLen)
	}
	checkAgainstRef(t, p, m, d, 41)
}

// FuzzParseHdr is differential: whatever the bytes and wherever the head mbuf
// ends, the in-place header parse and the linearise-then-parse reference agree
// on the verdict, every field and the payload, segKey agrees with both on the
// verdict and the connection key, and none of them panics.
func FuzzParseHdr(f *testing.F) {
	// The seeds are the committed corpus in testdata/fuzz/FuzzParseHdr.
	f.Add(dgram(nil, []byte("data")), uint8(255))
	p, m := mbuf.NewPool(), parseTestManager()
	f.Fuzz(func(t *testing.T, d []byte, head uint8) {
		checkAgainstRef(t, p, m, d, int(head))
	})
}

// BenchmarkParseHdr is what a handler on TCP.PacketRecv pays per segment: a
// full-size data segment laid out as the transmit path builds it.
func BenchmarkParseHdr(b *testing.B) {
	p := mbuf.NewPool()
	pkt := p.FromBytes(dgram(nil, make([]byte, 1460)), 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, ok := parseHdr(pkt)
		if !ok {
			b.Fatal("rejected")
		}
		sinkInt += s.payLen
	}
}

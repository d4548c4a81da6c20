package seqpkt

import (
	"testing"

	"plexus/internal/event"
	"plexus/internal/mbuf"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// endpointGuard is the closure guard an endpoint on port held before its
// binding became a key on RecvEvent: the packets parsePacket accepts whose
// destination port is port.
func endpointGuard(port uint16) event.Guard {
	return func(_ *sim.Task, pkt *mbuf.Mbuf) bool {
		if _, ok := parsePacket(pkt); !ok {
			return false
		}
		ipv, _ := view.IPv4(pkt.Bytes())
		raw, err := pkt.CopyData(ipv.HdrLen(), 4)
		return err == nil && uint16(raw[2])<<8|uint16(raw[3]) == port
	}
}

// portKey gives an endpoint's key exactly to the packets its closure guard
// accepted, whole or laid across mbufs.
func TestPortKeyAgreesWithClosure(t *testing.T) {
	pool := mbuf.NewPool()
	packet := func(dstPort uint16, edit func([]byte)) []byte {
		d := make([]byte, view.IPv4MinHdrLen+hdrLen+5)
		d[0] = 0x45
		d[2], d[3] = byte(len(d)>>8), byte(len(d))
		d[9] = IPProto
		h := d[view.IPv4MinHdrLen:]
		h[0], h[1], h[2], h[3] = 0x12, 0x34, byte(dstPort>>8), byte(dstPort)
		if edit != nil {
			edit(d)
		}
		return d
	}
	cases := map[string][]byte{
		"to port 7":            packet(7, nil),
		"to port 8":            packet(8, nil),
		"to port 0x0107":       packet(0x0107, nil),
		"short of a header":    packet(7, func(d []byte) { d[3] = view.IPv4MinHdrLen + hdrLen - 1 }),
		"a header exactly":     packet(7, func(d []byte) { d[3] = view.IPv4MinHdrLen + hdrLen }),
		"longer than its data": packet(7, func(d []byte) { d[3] = 0xff }),
		"no IP header":         {0x45, 0, 0},
	}
	matches := 0
	for name, d := range cases {
		for _, headLen := range []int{len(d), view.IPv4MinHdrLen + 3} {
			pkt := pool.FromBytes(d[:min(headLen, len(d))], 0)
			if headLen < len(d) {
				if err := pkt.Cat(pool.FromBytes(d[headLen:], 0)); err != nil {
					t.Fatal(err)
				}
			}
			exact, wild, ok := portKey(pkt)
			for _, port := range []uint16{7, 8, 0x0107} {
				keyed := ok && exact == event.Key(port) && wild == exact
				if keyed {
					matches++
				}
				if want := endpointGuard(port)(nil, pkt); keyed != want {
					t.Errorf("%s, head %d, port %d: keyed match %v, closure %v", name, headLen, port, keyed, want)
				}
			}
			pkt.Free()
		}
	}
	if matches == 0 {
		t.Fatal("no packet matched an endpoint: the table is vacuous")
	}
}

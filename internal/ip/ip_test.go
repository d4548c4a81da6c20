package ip_test

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"plexus/internal/event"
	"plexus/internal/ip"
	"plexus/internal/mbuf"
	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/view"
)

func spin(name string) plexus.HostSpec {
	return plexus.HostSpec{Name: name, Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt}
}

// impairment is a test netdev.Impairment: each transmitted frame is passed
// to mangle, then lost if lose says so.
type impairment struct {
	mangle func(wire []byte)
	lose   func(wire []byte) bool
}

func (impairment) Down() bool { return false }

func (im impairment) Frame(wire []byte) (bool, sim.Time, bool) {
	if im.mangle != nil {
		im.mangle(wire)
	}
	return im.lose != nil && im.lose(wire), 0, false
}

func pair(t testing.TB) (*plexus.Network, *plexus.Stack, *plexus.Stack) {
	t.Helper()
	n, a, b, err := plexus.TwoHosts(1, netdev.EthernetModel(), spin("a"), spin("b"))
	if err != nil {
		t.Fatal(err)
	}
	return n, a, b
}

// Property: ChecksumChain over any chain chunking equals the flat checksum.
func TestQuickChecksumChainMatchesFlat(t *testing.T) {
	f := func(data []byte, offRaw, nRaw uint16, headroom uint8) bool {
		pool := mbuf.NewPool()
		m := pool.FromBytes(data, int(headroom)%64)
		defer m.Free()
		if len(data) == 0 {
			return true
		}
		off := int(offRaw) % len(data)
		n := int(nRaw) % (len(data) - off + 1)
		var a view.Accum
		if err := ip.ChecksumChain(&a, m, off, n); err != nil {
			return false
		}
		want := view.Checksum(data[off : off+n])
		return a.Fold() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func TestChecksumChainRangeErrors(t *testing.T) {
	pool := mbuf.NewPool()
	m := pool.FromBytes(make([]byte, 100), 0)
	defer m.Free()
	var a view.Accum
	if err := ip.ChecksumChain(&a, m, -1, 10); !errors.Is(err, mbuf.ErrRange) {
		t.Error("negative offset accepted")
	}
	if err := ip.ChecksumChain(&a, m, 0, 101); !errors.Is(err, mbuf.ErrRange) {
		t.Error("overlong range accepted")
	}
}

func TestNoRouteOffSubnet(t *testing.T) {
	n, a, _ := pair(t)
	var sendErr error
	a.Spawn("send", func(task *sim.Task) {
		m := a.Host.Pool.FromBytes([]byte("x"), 64)
		sendErr = a.IP.Send(task, view.IP4{}, view.IP4{192, 168, 99, 1}, view.IPProtoUDP, m)
	})
	n.Sim.Run()
	if !errors.Is(sendErr, ip.ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", sendErr)
	}
}

func TestSpoofedSourceRejected(t *testing.T) {
	n, a, b := pair(t)
	var sendErr error
	a.Spawn("send", func(task *sim.Task) {
		m := a.Host.Pool.FromBytes([]byte("x"), 64)
		// Claim to be host b.
		sendErr = a.IP.Send(task, b.Addr(), b.Addr(), view.IPProtoUDP, m)
	})
	n.Sim.Run()
	if sendErr == nil {
		t.Fatal("spoofed source accepted by IP layer")
	}
}

// Craft a valid frame addressed (at the link layer) to B but (at the IP
// layer) to a third party: B must drop it as NotForUs, not deliver it.
func TestNotForUsDropped(t *testing.T) {
	n, a, b := pair(t)
	seen := 0
	if _, err := b.OpenUDP(plexus.UDPAppOptions{Port: 9}, func(*sim.Task, []byte, view.IP4, uint16) {
		seen++
	}); err != nil {
		t.Fatal(err)
	}
	a.Spawn("craft", func(task *sim.Task) {
		// Build IP(dst=10.0.0.77)/UDP(dport 9) by hand and ship it to
		// B's MAC.
		payload := []byte("snoop")
		dgram := make([]byte, 20+8+len(payload))
		dgram[0] = 0x45
		ipv, _ := view.IPv4(dgram)
		ipv.SetTotalLen(len(dgram))
		ipv.SetTTL(64)
		ipv.SetProto(view.IPProtoUDP)
		ipv.SetSrc(a.Addr())
		ipv.SetDst(view.IP4{10, 0, 0, 77})
		ipv.ComputeChecksum()
		uv, _ := view.UDP(dgram[20:])
		uv.SetSrcPort(1234)
		uv.SetDstPort(9)
		uv.SetLength(8 + len(payload))
		copy(dgram[28:], payload)
		m := a.Host.Pool.FromBytes(dgram, 32)
		if err := a.Ether.Send(task, b.NIC.MAC(), view.EtherTypeIPv4, m); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	n.Sim.Run()
	if seen != 0 {
		t.Fatal("misaddressed datagram delivered")
	}
	if b.IP.Stats().NotForUs != 1 {
		t.Errorf("NotForUs = %d", b.IP.Stats().NotForUs)
	}
}

// Corrupt the IP header in flight: the receiver must drop on checksum.
func TestHeaderChecksumValidation(t *testing.T) {
	n, a, b := pair(t)
	seen := 0
	if _, err := b.OpenUDP(plexus.UDPAppOptions{Port: 9}, func(*sim.Task, []byte, view.IP4, uint16) {
		seen++
	}); err != nil {
		t.Fatal(err)
	}
	n.Link.Impair(impairment{mangle: func(wire []byte) {
		if len(wire) > 22 {
			wire[22] ^= 0xff // flip a TTL bit in the IP header
		}
	}})
	capp, err := a.OpenUDP(plexus.UDPAppOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.Spawn("send", func(task *sim.Task) {
		_ = capp.Send(task, b.Addr(), 9, []byte("payload"))
	})
	n.Sim.Run()
	if seen != 0 {
		t.Fatal("corrupted datagram delivered")
	}
	if b.IP.Stats().BadChecksum != 1 {
		t.Errorf("BadChecksum = %d", b.IP.Stats().BadChecksum)
	}
}

// Fragment counts: a datagram of N bytes over a 1500 MTU yields
// ceil(N / 1480-rounded-to-8) fragments, observed at the receiver.
func TestFragmentCounts(t *testing.T) {
	for _, size := range []int{1600, 2960, 5000} {
		n, a, b := pair(t)
		var got []byte
		if _, err := b.OpenUDP(plexus.UDPAppOptions{Port: 9}, func(task *sim.Task, data []byte, src view.IP4, srcPort uint16) {
			got = data
		}); err != nil {
			t.Fatal(err)
		}
		capp, err := a.OpenUDP(plexus.UDPAppOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		msg := make([]byte, size)
		for i := range msg {
			msg[i] = byte(i)
		}
		a.Spawn("send", func(task *sim.Task) { _ = capp.Send(task, b.Addr(), 9, msg) })
		n.Sim.Run()
		if !bytes.Equal(got, msg) {
			t.Fatalf("size %d: corrupted", size)
		}
		maxPayload := (1500 - 20) &^ 7 // 1480
		want := (size + 8 + maxPayload - 1) / maxPayload
		if got := int(b.IP.Stats().FragmentsRcvd); got != want {
			t.Errorf("size %d: %d fragments, want %d", size, got, want)
		}
	}
}

// Drop one fragment: the datagram must never be delivered, and the
// reassembly buffer must time out.
func TestReassemblyTimeout(t *testing.T) {
	n, a, b := pair(t)
	seen := 0
	if _, err := b.OpenUDP(plexus.UDPAppOptions{Port: 9}, func(*sim.Task, []byte, view.IP4, uint16) {
		seen++
	}); err != nil {
		t.Fatal(err)
	}
	frames := 0
	n.Link.Impair(impairment{lose: func(wire []byte) bool {
		frames++
		return frames == 2 // lose the second fragment
	}})
	capp, err := a.OpenUDP(plexus.UDPAppOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.Spawn("send", func(task *sim.Task) { _ = capp.Send(task, b.Addr(), 9, make([]byte, 4000)) })
	n.Sim.RunUntil(ip.ReassemblyTimeout + 5*sim.Second)
	if seen != 0 {
		t.Fatal("incomplete datagram delivered")
	}
	if b.IP.Stats().ReasmTimeouts != 1 {
		t.Errorf("ReasmTimeouts = %d", b.IP.Stats().ReasmTimeouts)
	}
}

// captureFragments sends msg from a to b's UDP port 9 with every IPv4 frame
// dropped on the wire, and returns the dropped datagrams (IP header first),
// ready to be replayed in any order with replay.
func captureFragments(t *testing.T, n *plexus.Network, a, b *plexus.Stack, msg []byte) [][]byte {
	t.Helper()
	var frags [][]byte
	n.Link.Impair(impairment{lose: func(wire []byte) bool {
		if wire[12] != 0x08 || wire[13] != 0x00 {
			return false
		}
		frags = append(frags, append([]byte(nil), wire[view.EthernetHdrLen:]...))
		return true
	}})
	capp, err := a.OpenUDP(plexus.UDPAppOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.Spawn("send", func(task *sim.Task) { _ = capp.Send(task, b.Addr(), 9, msg) })
	n.Sim.Run()
	n.Link.Impair(nil)
	return frags
}

// replay transmits raw IPv4 datagrams from a to b's MAC, in order.
func replay(t *testing.T, n *plexus.Network, a, b *plexus.Stack, dgrams ...[]byte) {
	t.Helper()
	a.Spawn("replay", func(task *sim.Task) {
		for _, d := range dgrams {
			if err := a.Ether.Send(task, b.NIC.MAC(), view.EtherTypeIPv4, a.Host.Pool.FromBytes(d, 32)); err != nil {
				t.Errorf("replay: %v", err)
			}
		}
	})
	n.Sim.Run()
}

// rawFragment builds one IPv4 fragment from a to b by hand.
func rawFragment(a, b *plexus.Stack, id uint16, off int, more bool, payload []byte) []byte {
	d := make([]byte, view.IPv4MinHdrLen+len(payload))
	d[0] = 0x45
	v, _ := view.IPv4(d)
	v.SetTotalLen(len(d))
	v.SetID(id)
	flags := uint16(0)
	if more {
		flags = view.IPFlagMF
	}
	v.SetFlagsFrag(flags, off)
	v.SetTTL(64)
	v.SetProto(253) // RFC 3692 experimentation: no handler above IP
	v.SetSrc(a.Addr())
	v.SetDst(b.Addr())
	v.ComputeChecksum()
	copy(d[view.IPv4MinHdrLen:], payload)
	return d
}

// rawSink takes every datagram of rawFragment's protocol that b's IP layer
// delivers, fails the test unless its payload is want, and returns a
// pointer to the number it has taken.
func rawSink(t testing.TB, b *plexus.Stack, want []byte) *int {
	t.Helper()
	const proto = 253 // rawFragment's protocol
	isProto := func(_ *sim.Task, m *mbuf.Mbuf) bool {
		v, err := view.IPv4(m.Bytes())
		return err == nil && v.Proto() == proto
	}
	seen := new(int)
	if _, err := b.Host.Disp.Install(ip.RecvEvent, isProto, event.Ephemeral("raw.sink", func(_ *sim.Task, m *mbuf.Mbuf) {
		*seen++
		got, err := m.CopyData(view.IPv4MinHdrLen, m.PktLen()-view.IPv4MinHdrLen)
		m.Free()
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("delivered %d bytes (err %v), not the %d sent", len(got), err, len(want))
		}
	}), 0); err != nil {
		t.Fatal(err)
	}
	return seen
}

// FuzzReassembly sends one datagram as whatever fragments the fuzz bytes
// choose: size sets the datagram's length, and each 3-byte record of frags
// is one fragment, sent in record order — two bytes pick its first 8-byte
// unit and one byte its length in units, cut at the datagram's end. So the
// bytes choose the boundaries, the order, the duplicates and the overlaps.
// Every datagram the receiver delivers must be the bytes sent, nothing may
// panic, and once ReassemblyTimeout has passed the receiver's mbuf pool must
// be back at its baseline.
func FuzzReassembly(f *testing.F) {
	f.Add(uint16(2999), []byte{0, 0, 184, 0, 185, 184, 1, 114, 4})              // in order
	f.Add(uint16(2999), []byte{1, 114, 4, 0, 185, 184, 0, 185, 184, 0, 0, 184}) // last first, a duplicate
	f.Add(uint16(2006), []byte{0, 100, 120, 0, 0, 160, 0, 200, 90, 0, 50, 184}) // overlaps
	f.Add(uint16(12), []byte{0, 1, 0, 0, 0, 0})                                 // a short last fragment
	f.Add(uint16(511), []byte{0, 32, 31, 0, 0, 31})                             // 512 B, one bitmap word: halves reversed
	f.Add(uint16(512), []byte{0, 0, 63, 0, 0, 63, 0, 64, 0})                    // 513 B: a whole word twice, then unit 64
	f.Fuzz(func(t *testing.T, size uint16, frags []byte) {
		n, a, b := pair(t)
		src := make([]byte, 1+int(size)%4000)
		for i := range src {
			src[i] = byte(i*7 + len(src))
		}
		units := (len(src) + 7) / 8
		var dgrams [][]byte
		for ; len(frags) >= 3 && len(dgrams) < 32; frags = frags[3:] {
			off := (int(frags[0])<<8 | int(frags[1])) % units * 8
			end := min(off+8*(1+int(frags[2])%185), len(src))
			dgrams = append(dgrams, rawFragment(a, b, 77, off, end < len(src), src[off:end]))
		}
		rawSink(t, b, src)
		base := b.Host.Pool.Stats().InUse
		replay(t, n, a, b, dgrams...)
		n.Sim.RunUntil(n.Sim.Now() + ip.ReassemblyTimeout)
		if inUse := b.Host.Pool.Stats().InUse; inUse != base {
			t.Errorf("receiver pool holds %d mbufs after the reassembly timeout, %d before", inUse, base)
		}
	})
}

// One datagram's fragments arrive last first, with the middle one twice:
// they still reassemble, exactly once, into the bytes that were sent.
func TestReassemblyOutOfOrder(t *testing.T) {
	n, a, b := pair(t)
	var got []byte
	seen := 0
	if _, err := b.OpenUDP(plexus.UDPAppOptions{Port: 9}, func(task *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		got = append([]byte(nil), data...)
		seen++
	}); err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 3000)
	for i := range msg {
		msg[i] = byte(i * 3)
	}
	frags := captureFragments(t, n, a, b, msg)
	if len(frags) != 3 {
		t.Fatalf("captured %d fragments, want 3", len(frags))
	}
	replay(t, n, a, b, frags[2], frags[1], frags[1], frags[0])
	if !bytes.Equal(got, msg) {
		t.Fatalf("out-of-order reassembly failed: got %d bytes", len(got))
	}
	if st := b.IP.Stats(); seen != 1 || st.Reassembled != 1 || st.FragmentsRcvd != 4 {
		t.Errorf("delivered %d, Reassembled %d, FragmentsRcvd %d; want 1, 1, 4", seen, st.Reassembled, st.FragmentsRcvd)
	}
}

// Datagrams whose ends sit around the arrival bitmap's 64-unit word edges
// reassemble from fragments ending at units 63, 64 and 65 (those inside the
// datagram): in order, reversed, and with everything before the last
// fragment sent again as one fragment first, a whole word from 513 B on.
// Each is delivered exactly once, and no reassembly state is left to expire.
func TestReassemblyWordEdges(t *testing.T) {
	for _, size := range []int{511, 512, 513, 1024, 1025} {
		src := make([]byte, size)
		for i := range src {
			src[i] = byte(i*13 + size)
		}
		cuts := []int{0}
		for _, unit := range []int{63, 64, 65} {
			if unit*8 < size {
				cuts = append(cuts, unit*8)
			}
		}
		cuts = append(cuts, size)
		for _, order := range []string{"in order", "reversed", "duplicate"} {
			n, a, b := pair(t)
			seen := rawSink(t, b, src)
			var frags [][]byte
			for i := 0; i+1 < len(cuts); i++ {
				off, end := cuts[i], cuts[i+1]
				frags = append(frags, rawFragment(a, b, 5, off, end < size, src[off:end]))
			}
			switch order {
			case "reversed":
				slices.Reverse(frags)
			case "duplicate":
				lastOff := cuts[len(cuts)-2]
				frags = slices.Insert(frags, len(frags)-1, rawFragment(a, b, 5, 0, true, src[:lastOff]))
			}
			replay(t, n, a, b, frags...)
			n.Sim.RunUntil(n.Sim.Now() + ip.ReassemblyTimeout)
			st := b.IP.Stats()
			if *seen != 1 || st.Reassembled != 1 || st.FragmentsRcvd != uint64(len(frags)) || st.BadHeader != 0 || st.ReasmTimeouts != 0 {
				t.Errorf("%d B %s: delivered %d, Reassembled %d, FragmentsRcvd %d of %d, BadHeader %d, ReasmTimeouts %d; want 1, 1, all, 0, 0",
					size, order, *seen, st.Reassembled, st.FragmentsRcvd, len(frags), st.BadHeader, st.ReasmTimeouts)
			}
		}
	}
}

// Reassembly buffers are recycled: after an all-0xAA datagram, a shorter
// patterned one whose last fragment arrives first (so its end is known while
// the recycled buffer's stale arrival map and bytes are still there), and
// then one longer than either, each arrive byte-exact.
func TestReassemblyReusesBuffers(t *testing.T) {
	n, a, b := pair(t)
	var got []byte
	if _, err := b.OpenUDP(plexus.UDPAppOptions{Port: 9}, func(task *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		got = append([]byte(nil), data...)
	}); err != nil {
		t.Fatal(err)
	}
	capp, err := a.OpenUDP(plexus.UDPAppOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	send := func(msg []byte) {
		got = nil
		a.Spawn("send", func(task *sim.Task) { _ = capp.Send(task, b.Addr(), 9, msg) })
		n.Sim.Run()
	}
	pattern := func(size int) []byte {
		msg := make([]byte, size)
		for j := range msg {
			msg[j] = byte(j*5 + size)
		}
		return msg
	}
	first := bytes.Repeat([]byte{0xaa}, 5000)
	send(first)
	if !bytes.Equal(got, first) {
		t.Fatalf("first datagram: got %d bytes, not the bytes sent", len(got))
	}
	second := pattern(3001)
	frags := captureFragments(t, n, a, b, second)
	got = nil
	replay(t, n, a, b, frags[2], frags[1], frags[0])
	if !bytes.Equal(got, second) {
		t.Fatalf("reversed datagram in a recycled buffer: got %d bytes, not the bytes sent", len(got))
	}
	third := pattern(6007)
	send(third)
	if !bytes.Equal(got, third) {
		t.Fatalf("longer datagram in a recycled buffer: got %d bytes, not the bytes sent", len(got))
	}
	if r := b.IP.Stats().Reassembled; r != 3 {
		t.Errorf("Reassembled = %d, want 3", r)
	}
}

// A fragment other than the last whose payload is not a multiple of eight
// bytes would leave a hole before the next fragment's offset: it is dropped
// as a bad header, and the datagram is never delivered.
func TestReassemblyRejectsShortMiddleFragment(t *testing.T) {
	n, a, b := pair(t)
	seen := 0
	if _, err := b.OpenUDP(plexus.UDPAppOptions{Port: 9}, func(*sim.Task, []byte, view.IP4, uint16) {
		seen++
	}); err != nil {
		t.Fatal(err)
	}
	n.Link.Impair(impairment{mangle: func(wire []byte) {
		v, err := view.IPv4(wire[view.EthernetHdrLen:])
		if err != nil || !v.MoreFragments() || v.FragOffset() != 0 {
			return
		}
		v.SetTotalLen(v.TotalLen() - 3) // the last 3 bytes become link padding
		v.ComputeChecksum()
	}})
	capp, err := a.OpenUDP(plexus.UDPAppOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.Spawn("send", func(task *sim.Task) { _ = capp.Send(task, b.Addr(), 9, make([]byte, 3000)) })
	n.Sim.RunUntil(ip.ReassemblyTimeout + 5*sim.Second)
	st := b.IP.Stats()
	if seen != 0 || st.Reassembled != 0 {
		t.Fatalf("datagram with a hole delivered: app saw %d, Reassembled = %d", seen, st.Reassembled)
	}
	if st.BadHeader != 1 || st.ReasmTimeouts != 1 {
		t.Errorf("BadHeader = %d, ReasmTimeouts = %d; want 1, 1", st.BadHeader, st.ReasmTimeouts)
	}
}

// A fragment ending past the largest datagram IPv4 can describe is dropped
// as a bad header before any reassembly state is made for it.
func TestReassemblyRejectsOverrun(t *testing.T) {
	n, a, b := pair(t)
	replay(t, n, a, b, rawFragment(a, b, 7, 65528, false, make([]byte, 16)))
	n.Sim.RunUntil(ip.ReassemblyTimeout + 5*sim.Second)
	if st := b.IP.Stats(); st.BadHeader != 1 || st.ReasmTimeouts != 0 {
		t.Errorf("BadHeader = %d, ReasmTimeouts = %d; want 1, 0", st.BadHeader, st.ReasmTimeouts)
	}
}

// Once the last fragment has fixed the datagram's end, a fragment that
// contradicts it — a second last fragment ending elsewhere, or one reaching
// past the end — is dropped, and the datagram completes from the others.
func TestReassemblyRejectsConflictingEnd(t *testing.T) {
	n, a, b := pair(t)
	replay(t, n, a, b,
		rawFragment(a, b, 9, 8, false, []byte{1, 2, 3}),        // ends at 11
		rawFragment(a, b, 9, 16, false, []byte{4, 5, 6, 7, 8}), // ends at 21
		rawFragment(a, b, 9, 16, true, make([]byte, 8)),        // past 11
		rawFragment(a, b, 9, 0, true, make([]byte, 8)),
	)
	if st := b.IP.Stats(); st.BadHeader != 2 || st.Reassembled != 1 {
		t.Errorf("BadHeader = %d, Reassembled = %d; want 2, 1", st.BadHeader, st.Reassembled)
	}
}

func TestIPStatsAndAccessors(t *testing.T) {
	n, a, b := pair(t)
	if a.IP.Addr() != (view.IP4{10, 0, 0, 1}) {
		t.Error("Addr wrong")
	}
	if a.IP.MTU() != 1500 {
		t.Error("MTU wrong")
	}
	capp, err := a.OpenUDP(plexus.UDPAppOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.OpenUDP(plexus.UDPAppOptions{Port: 9}, nil); err != nil {
		t.Fatal(err)
	}
	a.Spawn("send", func(task *sim.Task) { _ = capp.Send(task, b.Addr(), 9, []byte("x")) })
	n.Sim.Run()
	if a.IP.Stats().Sent == 0 {
		t.Error("Sent not counted")
	}
	if b.IP.Stats().Delivered == 0 {
		t.Error("Delivered not counted")
	}
}

// Broadcast datagrams are accepted by every host on the segment.
func TestBroadcastDelivery(t *testing.T) {
	n, err := plexus.NewNetwork(1, netdev.EthernetModel(), []plexus.HostSpec{spin("a"), spin("b"), spin("c")})
	if err != nil {
		t.Fatal(err)
	}
	n.PrimeARP()
	a := n.Hosts[0]
	got := 0
	for _, h := range n.Hosts[1:] {
		if _, err := h.OpenUDP(plexus.UDPAppOptions{Port: 9}, func(*sim.Task, []byte, view.IP4, uint16) {
			got++
		}); err != nil {
			t.Fatal(err)
		}
	}
	capp, err := a.OpenUDP(plexus.UDPAppOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.Spawn("send", func(task *sim.Task) {
		_ = capp.Send(task, view.IP4{255, 255, 255, 255}, 9, []byte("everyone"))
	})
	n.Sim.Run()
	if got != 2 {
		t.Fatalf("broadcast reached %d of 2 hosts", got)
	}
}

// BenchmarkFragmentRoundTrip carries one 12,500-byte UDP datagram — a
// Figure 6 video frame, nine fragments — from one host to the other per op:
// fragmentation, the wire, and reassembly.
func BenchmarkFragmentRoundTrip(b *testing.B) {
	n, a, bh := pair(b)
	got := 0
	if _, err := bh.OpenUDP(plexus.UDPAppOptions{Port: 9}, func(*sim.Task, []byte, view.IP4, uint16) {
		got++
	}); err != nil {
		b.Fatal(err)
	}
	capp, err := a.OpenUDP(plexus.UDPAppOptions{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 12500)
	send := func(task *sim.Task) { _ = capp.Send(task, bh.Addr(), 9, msg) }
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Spawn("send", send)
		n.Sim.Run()
	}
	if got != b.N {
		b.Fatalf("delivered %d of %d datagrams", got, b.N)
	}
}

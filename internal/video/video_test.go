package video

import (
	"testing"

	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// videoNet builds server+client hosts on a T3 link (the Figure 6 testbed).
func videoNet(t *testing.T, serverP osmodel.Personality) (*plexus.Network, *plexus.Stack, *plexus.Stack) {
	t.Helper()
	n, err := plexus.NewNetwork(1, netdev.DECT3Model(), []plexus.HostSpec{
		{Name: "server", Personality: serverP, Dispatch: osmodel.DispatchInterrupt},
		{Name: "client", Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.PrimeARP()
	return n, n.Hosts[0], n.Hosts[1]
}

func group(i int) view.IP4 { return view.IP4{224, 0, 1, byte(i + 1)} }

func TestVideoDelivery(t *testing.T) {
	n, sv, cl := videoNet(t, osmodel.SPIN)
	srv, err := NewServer(sv, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(cl, DefaultPort)
	if err != nil {
		t.Fatal(err)
	}
	srv.AddStream(group(0))
	if len(srv.streams) != 1 {
		t.Fatal("stream not registered")
	}
	srv.Run(1 * sim.Second)
	n.Sim.RunUntil(2 * sim.Second)
	ss, cs := srv.Stats(), client.Stats()
	t.Logf("server: %+v client: %+v", ss, cs)
	// 30 fps for 1s ≈ 30 frames.
	if ss.FramesSent < 28 || ss.FramesSent > 31 {
		t.Errorf("FramesSent = %d, want ~30", ss.FramesSent)
	}
	if cs.FramesRcvd != ss.FramesSent {
		t.Errorf("client received %d of %d frames", cs.FramesRcvd, ss.FramesSent)
	}
	if cs.ChecksumErrors != 0 {
		t.Errorf("checksum errors: %d", cs.ChecksumErrors)
	}
	if cs.BytesDisplayed == 0 {
		t.Error("nothing displayed")
	}
}

// The Figure 6 claim: at the same stream count, the SPIN server uses roughly
// half the CPU of the monolithic server.
func TestVideoServerCPUHalved(t *testing.T) {
	measure := func(p osmodel.Personality, streams int) float64 {
		n, sv, cl := videoNet(t, p)
		srv, err := NewServer(sv, ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewClient(cl, DefaultPort); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < streams; i++ {
			srv.AddStream(group(i))
		}
		sv.Host.CPU.MarkUtilization()
		srv.Run(2 * sim.Second)
		n.Sim.RunUntil(2 * sim.Second)
		return sv.Host.CPU.Utilization()
	}
	spin := measure(osmodel.SPIN, 10)
	dux := measure(osmodel.Monolithic, 10)
	t.Logf("10 streams: SPIN=%.1f%% DUX=%.1f%%", spin*100, dux*100)
	if spin <= 0 || dux <= 0 {
		t.Fatal("no utilization measured")
	}
	ratio := dux / spin
	if ratio < 1.6 || ratio > 3.0 {
		t.Errorf("DUX/SPIN CPU ratio = %.2f, want ~2 (paper: half as much processor)", ratio)
	}
}

// Utilization grows with stream count (the Figure 6 x-axis).
func TestVideoUtilizationMonotone(t *testing.T) {
	measure := func(streams int) float64 {
		n, sv, cl := videoNet(t, osmodel.SPIN)
		srv, err := NewServer(sv, ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewClient(cl, DefaultPort); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < streams; i++ {
			srv.AddStream(group(i))
		}
		sv.Host.CPU.MarkUtilization()
		srv.Run(1 * sim.Second)
		n.Sim.RunUntil(1 * sim.Second)
		return sv.Host.CPU.Utilization()
	}
	u5, u10, u20 := measure(5), measure(10), measure(20)
	t.Logf("utilization: 5→%.1f%% 10→%.1f%% 20→%.1f%%", u5*100, u10*100, u20*100)
	if !(u5 < u10 && u10 < u20) {
		t.Errorf("utilization not monotone: %v %v %v", u5, u10, u20)
	}
}

// Beyond ~15 streams the 45Mb/s T3 saturates: the link carries no more bytes
// even as offered load grows.
func TestVideoNetworkSaturation(t *testing.T) {
	carried := func(streams int) float64 {
		n, sv, cl := videoNet(t, osmodel.SPIN)
		srv, err := NewServer(sv, ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		client, err := NewClient(cl, DefaultPort)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < streams; i++ {
			srv.AddStream(group(i))
		}
		srv.Run(2 * sim.Second)
		n.Sim.RunUntil(2 * sim.Second)
		return float64(client.Stats().BytesDisplayed) * 8 / 2 / 1e6 // Mb/s goodput
	}
	at10 := carried(10)
	at15 := carried(15)
	at25 := carried(25)
	t.Logf("client goodput: 10 streams %.1f Mb/s, 15 streams %.1f Mb/s, 25 streams %.1f Mb/s", at10, at15, at25)
	if at10 >= 42 {
		t.Errorf("10 streams should not saturate the T3: %.1f", at10)
	}
	if at15 < 38 {
		t.Errorf("15 streams should approach the 45Mb/s T3: %.1f", at15)
	}
	if at25 > 46 {
		t.Errorf("25 streams cannot exceed the wire: %.1f", at25)
	}
}

// The client is framebuffer-bound (paper §5.1): with display writes at
// framebuffer speed, client CPU is dominated by display, so SPIN and DUX
// clients perform similarly; with fast video hardware the gap appears.
func TestVideoClientFramebufferBound(t *testing.T) {
	measure := func(clientP osmodel.Personality, fbBound bool) float64 {
		n, err := plexus.NewNetwork(1, netdev.DECT3Model(), []plexus.HostSpec{
			{Name: "server", Personality: osmodel.SPIN},
			{Name: "client", Personality: clientP},
		})
		if err != nil {
			t.Fatal(err)
		}
		n.PrimeARP()
		sv, cl := n.Hosts[0], n.Hosts[1]
		srv, err := NewServer(sv, ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		client, err := NewClient(cl, DefaultPort)
		if err != nil {
			t.Fatal(err)
		}
		client.FramebufferBound = fbBound
		for i := 0; i < 5; i++ {
			srv.AddStream(group(i))
		}
		cl.Host.CPU.MarkUtilization()
		srv.Run(1 * sim.Second)
		n.Sim.RunUntil(1 * sim.Second)
		return cl.Host.CPU.Utilization()
	}
	spinFB := measure(osmodel.SPIN, true)
	duxFB := measure(osmodel.Monolithic, true)
	spinFast := measure(osmodel.SPIN, false)
	duxFast := measure(osmodel.Monolithic, false)
	t.Logf("framebuffer-bound: SPIN=%.1f%% DUX=%.1f%% (ratio %.2f); fast hw: SPIN=%.1f%% DUX=%.1f%% (ratio %.2f)",
		spinFB*100, duxFB*100, duxFB/spinFB, spinFast*100, duxFast*100, duxFast/spinFast)
	// Paper: "the CPU utilization between the two operating systems was
	// similar" when framebuffer-bound.
	if duxFB/spinFB > 1.5 {
		t.Errorf("framebuffer-bound clients should be similar; ratio %.2f", duxFB/spinFB)
	}
	// With better video hardware the OS structure matters again.
	if duxFast/spinFast <= duxFB/spinFB {
		t.Errorf("fast video hardware should widen the gap: fb=%.2f fast=%.2f", duxFB/spinFB, duxFast/spinFast)
	}
}

// The §5.1 ILP candidate: fusing checksum+decompress+display into one
// traversal reduces client CPU (the [CT90] optimization the architecture
// enables).
func TestVideoILPReducesClientCPU(t *testing.T) {
	measure := func(ilp bool) float64 {
		n, sv, cl := videoNet(t, osmodel.SPIN)
		srv, err := NewServer(sv, ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		client, err := NewClient(cl, DefaultPort)
		if err != nil {
			t.Fatal(err)
		}
		client.ILP = ilp
		for i := 0; i < 10; i++ {
			srv.AddStream(group(i))
		}
		cl.Host.CPU.MarkUtilization()
		srv.Run(1 * sim.Second)
		n.Sim.RunUntil(1 * sim.Second)
		if client.Stats().ChecksumErrors != 0 {
			t.Fatal("ILP path broke checksum verification")
		}
		if client.Stats().FramesRcvd == 0 {
			t.Fatal("no frames delivered")
		}
		return cl.Host.CPU.Utilization()
	}
	twoPass := measure(false)
	ilp := measure(true)
	t.Logf("client CPU: two-pass %.1f%%, ILP %.1f%% (%.1f%% saved)",
		twoPass*100, ilp*100, (twoPass-ilp)/twoPass*100)
	if ilp >= twoPass {
		t.Errorf("ILP (%.3f) should use less CPU than two-pass (%.3f)", ilp, twoPass)
	}
}

// The paper's setup multicasts "to a set of clients": several client hosts
// on the link each subscribe to their own stream group and receive only it.
func TestVideoMultipleClientHosts(t *testing.T) {
	const clients = 3
	specs := []plexus.HostSpec{{Name: "server", Personality: osmodel.SPIN}}
	for i := 0; i < clients; i++ {
		specs = append(specs, plexus.HostSpec{Name: string(rune('a' + i)), Personality: osmodel.SPIN})
	}
	n, err := plexus.NewNetwork(1, netdev.DECT3Model(), specs)
	if err != nil {
		t.Fatal(err)
	}
	n.PrimeARP()
	sv := n.Hosts[0]
	srv, err := NewServer(sv, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Every client host subscribes on the shared port; each stream goes to
	// a distinct group, and all clients are on the same wire, so each
	// client sees all frames (multicast) — the per-host clients verify
	// checksum integrity independently.
	cls := make([]*Client, clients)
	for i := 0; i < clients; i++ {
		c, err := NewClient(n.Hosts[i+1], DefaultPort)
		if err != nil {
			t.Fatal(err)
		}
		cls[i] = c
		srv.AddStream(group(i))
	}
	srv.Run(1 * sim.Second)
	// Run past the stream end so the final tick's frames land.
	n.Sim.RunUntil(1200 * sim.Millisecond)
	want := srv.Stats().FramesSent
	if want == 0 {
		t.Fatal("no frames sent")
	}
	for i, c := range cls {
		if c.Stats().FramesRcvd != want {
			t.Errorf("client %d received %d of %d multicast frames", i, c.Stats().FramesRcvd, want)
		}
		if c.Stats().ChecksumErrors != 0 {
			t.Errorf("client %d checksum errors: %d", i, c.Stats().ChecksumErrors)
		}
	}
}

// Frames cut from the ramp, with their closed-form checksum, agree byte for
// byte with the one-byte-per-step definition for every seq residue, at every
// length around the 8-byte word and the 1,024-byte lane-flush boundaries of
// the client's checksum; seq 255 cuts the window that ends at the ramp's end.
// The client's word-at-a-time checksum agrees with a bytewise sum.
func TestFrameKernelsMatchBytewise(t *testing.T) {
	for _, size := range []int{frameHdrLen, frameHdrLen + 1, 19, 20, 21, 1035, 1036, 1037, 2060, DefaultFrameSize} {
		frame, ramp := frameBuffers(size)
		s := &Server{cfg: ServerConfig{FrameSize: size}, frame: frame, ramp: ramp}
		want := make([]byte, size)
		seqs := []uint32{1 << 20}
		for seq := range 256 {
			seqs = append(seqs, uint32(seq))
		}
		for _, seq := range seqs {
			got := s.buildFrame(3, seq)
			var sum uint32
			for i := frameHdrLen; i < size; i++ {
				want[i] = byte(int(seq) + i*7)
				sum += uint32(want[i])
			}
			be32(want[0:], 3)
			be32(want[4:], seq)
			be32(want[8:], sum)
			if string(got) != string(want) {
				t.Fatalf("size %d seq %d: frame differs from the bytewise fill", size, seq)
			}
			if appChecksum(got[frameHdrLen:]) != sum {
				t.Fatalf("size %d seq %d: appChecksum differs from the bytewise sum", size, seq)
			}
		}
	}
	b := make([]byte, 70000)
	for i := range b {
		b[i] = 0xff
	}
	var want uint32
	for _, x := range b {
		want += uint32(x)
	}
	if got := appChecksum(b); got != want {
		t.Errorf("appChecksum of %d x 0xff = %d, want %d", len(b), got, want)
	}
}

// rampChecksum's closed form equals the bytewise sum of first+7k for every
// first byte, at every length to 600 and at the default frame's payload.
func TestRampChecksumMatchesBytewise(t *testing.T) {
	for first := 0; first < 256; first++ {
		var sum uint32
		for n := 0; n <= DefaultFrameSize-frameHdrLen; n++ {
			if n <= 600 || n == DefaultFrameSize-frameHdrLen {
				if got := rampChecksum(byte(first), n); got != sum {
					t.Fatalf("rampChecksum(%d, %d) = %d, want %d", first, n, got, sum)
				}
			}
			sum += uint32(byte(first + 7*n))
		}
	}
}

// A frame too small for its header is refused when the server is made, not
// when the first tick would build it.
func TestNewServerRejectsShortFrame(t *testing.T) {
	_, sv, _ := videoNet(t, osmodel.SPIN)
	for _, size := range []int{-1, 1, frameHdrLen - 1} {
		if _, err := NewServer(sv, ServerConfig{FrameSize: size}); err == nil {
			t.Errorf("NewServer with FrameSize %d: no error", size)
		}
	}
	srv, err := NewServer(sv, ServerConfig{FrameSize: frameHdrLen})
	if err != nil {
		t.Fatalf("NewServer with a header-only frame: %v", err)
	}
	if got := srv.buildFrame(0, 1); len(got) != frameHdrLen || rd32(got[8:]) != 0 {
		t.Errorf("header-only frame = %x", got)
	}
}

// BenchmarkBuildFrame synthesizes one default-size frame per op: the ramp
// window's copy and the closed-form checksum, allocating nothing.
func BenchmarkBuildFrame(b *testing.B) {
	frame, ramp := frameBuffers(DefaultFrameSize)
	s := &Server{cfg: ServerConfig{FrameSize: DefaultFrameSize}, frame: frame, ramp: ramp}
	b.SetBytes(DefaultFrameSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.buildFrame(uint32(i), uint32(i))
	}
}

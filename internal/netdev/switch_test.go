package netdev

import (
	"testing"

	"plexus/internal/event"
	"plexus/internal/mbuf"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// swHost is one host hanging off a switch port in the test fabric.
type swHost struct {
	nic   *NIC
	cable *Link
	cpu   *sim.CPU
	pool  *mbuf.Pool
	rx    [][]byte
	rxAt  []sim.Time
}

// swRig is a star topology: n hosts, each on its own cable into one switch.
type swRig struct {
	sim   *sim.Sim
	sw    *Switch
	hosts []*swHost
}

func newSwRig(t *testing.T, model Model, cfg SwitchConfig, n int) *swRig {
	t.Helper()
	s := sim.New(1)
	r := &swRig{sim: s, sw: NewSwitch(s, "sw0", model, cfg)}
	for i := 0; i < n; i++ {
		host := testHost(s, "host")
		h := &swHost{cable: &Link{}, cpu: host.CPU, pool: host.Pool}
		disp := host.Disp
		h.nic = NewNIC(host, "nic", model, h.cable, view.MAC{2, 0, 0, 0, 1, byte(i + 1)})
		h.nic.SetRecvRef(disp.Ref(testRecvEvent))
		if _, err := disp.Install(testRecvEvent, nil, event.Proc("sink", func(task *sim.Task, m *mbuf.Mbuf) {
			data, _ := m.CopyData(0, m.PktLen())
			h.rx = append(h.rx, data)
			h.rxAt = append(h.rxAt, task.Now())
			m.Free()
		}), 0); err != nil {
			t.Fatal(err)
		}
		r.sw.AttachLink(h.cable)
		r.hosts = append(r.hosts, h)
	}
	return r
}

// send transmits a frame from host src to dstMAC with the given payload size.
func (r *swRig) send(t *testing.T, src int, dst view.MAC, payload int) {
	t.Helper()
	h := r.hosts[src]
	b := make([]byte, view.EthernetHdrLen+payload)
	eth, _ := view.Ethernet(b)
	eth.SetDst(dst)
	eth.SetSrc(h.nic.MAC())
	eth.SetEtherType(0x0800)
	m := h.pool.FromBytes(b, 0)
	h.cpu.Submit(sim.PrioKernel, "tx", func(task *sim.Task) {
		if err := h.nic.Transmit(task, m); err != nil {
			t.Errorf("transmit: %v", err)
		}
	})
}

// deliveries reports every frame the host's NIC saw, accepted or not.
func (h *swHost) deliveries() uint64 {
	st := h.nic.Stats()
	return st.RxFrames + st.RxFiltered + st.RxErrors
}

// An unknown destination floods; once learned, unicast reaches one port only.
func TestSwitchLearningAndFlooding(t *testing.T) {
	r := newSwRig(t, EthernetModel(), SwitchConfig{}, 4)
	// Host 0 → host 1, destination unknown: flooded to ports 1..3.
	r.send(t, 0, r.hosts[1].nic.MAC(), 100)
	r.sim.Run()
	if got := r.sw.Stats().Flooded; got != 1 {
		t.Fatalf("Flooded = %d, want 1", got)
	}
	for i, h := range r.hosts[1:] {
		if h.deliveries() != 1 {
			t.Errorf("host %d saw %d deliveries during flood, want 1", i+1, h.deliveries())
		}
	}
	// Host 1 replies: 0's address was learned from the first frame, so the
	// reply is forwarded out port 0 alone.
	r.send(t, 1, r.hosts[0].nic.MAC(), 100)
	r.sim.Run()
	st := r.sw.Stats()
	if st.Forwarded != 1 || st.Flooded != 1 {
		t.Fatalf("Forwarded = %d Flooded = %d, want 1/1", st.Forwarded, st.Flooded)
	}
	if r.hosts[2].deliveries() != 1 || r.hosts[3].deliveries() != 1 {
		t.Error("learned unicast leaked to a third port")
	}
	if len(r.hosts[0].rx) != 1 {
		t.Fatalf("host 0 received %d frames, want 1", len(r.hosts[0].rx))
	}
	if len(r.sw.macs) != 2 {
		t.Errorf("MAC table has %d entries, want 2", len(r.sw.macs))
	}
}

// The regression the scale plane depends on: with many hosts on the fabric, a
// unicast frame costs O(1) deliveries, not O(hosts) — only the owning port's
// NIC ever sees it.
func TestSwitchUnicastExactlyOnePort(t *testing.T) {
	const hosts = 256
	r := newSwRig(t, EthernetModel(), SwitchConfig{}, hosts)
	// Teach the switch where host 1 lives (one flood), then unicast to it.
	r.send(t, 1, r.hosts[0].nic.MAC(), 10)
	r.sim.Run()
	base := make([]uint64, hosts)
	for i, h := range r.hosts {
		base[i] = h.deliveries()
	}
	r.send(t, 0, r.hosts[1].nic.MAC(), 100)
	r.sim.Run()
	if len(r.hosts[1].rx) != 1 {
		t.Fatalf("destination received %d frames, want 1", len(r.hosts[1].rx))
	}
	for i, h := range r.hosts {
		want := base[i]
		if i == 1 {
			want++
		}
		if h.deliveries() != want {
			t.Fatalf("host %d: %d deliveries, want %d — unicast fanned out", i, h.deliveries(), want)
		}
	}
	if st := r.sw.Stats(); st.Forwarded != 1 {
		t.Errorf("Forwarded = %d, want 1", st.Forwarded)
	}
}

// Broadcast still floods every port except the ingress.
func TestSwitchBroadcastFloods(t *testing.T) {
	r := newSwRig(t, EthernetModel(), SwitchConfig{}, 5)
	r.send(t, 2, view.BroadcastMAC, 10)
	r.sim.Run()
	for i, h := range r.hosts {
		want := 1
		if i == 2 {
			want = 0
		}
		if len(h.rx) != want {
			t.Errorf("host %d received %d broadcast frames, want %d", i, len(h.rx), want)
		}
	}
}

// Aged MAC entries are evicted and the frame floods again.
func TestSwitchMACAging(t *testing.T) {
	r := newSwRig(t, EthernetModel(), SwitchConfig{}, 3)
	r.sw.ageTime = 10 * sim.Millisecond
	r.send(t, 1, r.hosts[0].nic.MAC(), 10) // learn host 1
	r.sim.Run()
	r.send(t, 0, r.hosts[1].nic.MAC(), 10) // forwarded, not flooded
	r.sim.Run()
	if st := r.sw.Stats(); st.Forwarded != 1 {
		t.Fatalf("Forwarded = %d, want 1", st.Forwarded)
	}
	// Let host 1's entry age out, then send again: flood + eviction.
	r.sim.RunUntil(r.sim.Now() + 20*sim.Millisecond)
	r.send(t, 0, r.hosts[1].nic.MAC(), 10)
	r.sim.Run()
	st := r.sw.Stats()
	if st.Aged != 1 {
		t.Errorf("Aged = %d, want 1", st.Aged)
	}
	if st.Flooded != 2 { // the initial unknown destination + post-aging
		t.Errorf("Flooded = %d, want 2", st.Flooded)
	}
	if r.hosts[2].deliveries() != 2 {
		t.Errorf("host 2 saw %d deliveries, want 2 floods", r.hosts[2].deliveries())
	}
}

// Fan-in overload tail-drops at the destination port, with exact accounting:
// every offered frame is either transmitted out the port or counted dropped.
func TestSwitchTailDropUnderFanIn(t *testing.T) {
	const senders = 8
	const burst = 4
	r := newSwRig(t, EthernetModel(), SwitchConfig{QueueFrames: 4}, senders+1)
	dst := r.hosts[senders]
	// Teach the switch the destination's port so the burst is unicast.
	r.send(t, senders, r.hosts[0].nic.MAC(), 10)
	r.sim.Run()
	for s := 0; s < senders; s++ {
		for i := 0; i < burst; i++ {
			r.send(t, s, dst.nic.MAC(), 1400)
		}
	}
	r.sim.Run()
	port := r.sw.Ports()[senders].Stats()
	if port.Drops == 0 {
		t.Fatal("no tail drops despite 32-frame fan-in burst into a 4-frame queue")
	}
	if port.TxFrames+port.Drops != senders*burst {
		t.Errorf("accounting: %d tx + %d dropped != %d offered",
			port.TxFrames, port.Drops, senders*burst)
	}
	if uint64(len(dst.rx)) != port.TxFrames {
		t.Errorf("destination received %d, port transmitted %d", len(dst.rx), port.TxFrames)
	}
	if r.sw.QueueDrops() != port.Drops {
		t.Errorf("QueueDrops = %d, port drops = %d", r.sw.QueueDrops(), port.Drops)
	}
}

// One switch hop costs two serializations (host→switch, switch→host) plus the
// store-and-forward latency — never less.
func TestSwitchStoreAndForwardLatency(t *testing.T) {
	model := EthernetModel()
	r := newSwRig(t, model, SwitchConfig{}, 2)
	r.send(t, 0, r.hosts[1].nic.MAC(), 1400)
	r.sim.Run()
	if len(r.hosts[1].rxAt) != 1 {
		t.Fatalf("received %d frames", len(r.hosts[1].rxAt))
	}
	min := 2*model.serialization(1414) + SwitchLatency
	if got := r.hosts[1].rxAt[0]; got < min {
		t.Errorf("one-hop delivery at %v, store-and-forward floor is %v", got, min)
	}
}

// Frames funneled through one egress port leave in FIFO order even when two
// ingress cables race.
func TestSwitchEgressFIFO(t *testing.T) {
	r := newSwRig(t, EthernetModel(), SwitchConfig{}, 3)
	dst := r.hosts[2]
	r.send(t, 2, r.hosts[0].nic.MAC(), 10) // learn the egress port
	r.sim.Run()
	for i := 0; i < 6; i++ {
		r.send(t, i%2, dst.nic.MAC(), 200+i) // distinguishable sizes
	}
	r.sim.Run()
	if len(dst.rxAt) != 6 {
		t.Fatalf("received %d frames, want 6", len(dst.rxAt))
	}
	for i := 1; i < len(dst.rxAt); i++ {
		if dst.rxAt[i] <= dst.rxAt[i-1] {
			t.Errorf("frames %d/%d arrived at %v/%v — not serialized FIFO",
				i-1, i, dst.rxAt[i-1], dst.rxAt[i])
		}
	}
}

// Wire snapshots forwarded across the fabric are all released at quiescence,
// including flooded copies crossing several cables.
func TestSwitchLiveFramesBalanced(t *testing.T) {
	r := newSwRig(t, EthernetModel(), SwitchConfig{QueueFrames: 2}, 6)
	for i := 0; i < 5; i++ {
		r.send(t, i, view.BroadcastMAC, 300)
		r.send(t, i, r.hosts[(i+1)%5].nic.MAC(), 300)
	}
	r.sim.Run()
	for i, h := range r.hosts {
		if live := h.cable.LiveFrames(); live != 0 {
			t.Errorf("cable %d: %d wire frames still referenced", i, live)
		}
	}
}

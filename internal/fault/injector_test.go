// Integration tests: the injector attached to a real two-host Plexus network,
// faulting live UDP traffic. In package fault_test because internal/plexus
// (transitively) sits above internal/fault.
package fault_test

import (
	"fmt"
	"strings"
	"testing"

	"plexus/internal/fault"
	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/view"
)

func spinSpec(name string) plexus.HostSpec {
	return plexus.HostSpec{Name: name, Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt}
}

// udpRig is a two-host network with a fault injector on the link and a UDP
// sink on host B. sendN fires n datagrams from A at the given spacing; each
// carries its sequence number so the sink can observe loss, duplication, and
// reordering, and the sink records when each one reached it.
type udpRig struct {
	t        *testing.T
	net      *plexus.Network
	a, b     *plexus.Stack
	in       *fault.Injector
	capp     *plexus.UDPApp
	received []int
	at       []sim.Time
	sent     int
}

func newUDPRig(t *testing.T, seed int64) *udpRig {
	t.Helper()
	n, a, b, err := plexus.TwoHosts(seed, netdev.EthernetModel(), spinSpec("a"), spinSpec("b"))
	if err != nil {
		t.Fatal(err)
	}
	r := &udpRig{t: t, net: n, a: a, b: b, in: fault.Attach(n.Sim, n.Link)}
	_, err = b.OpenUDP(plexus.UDPAppOptions{Port: 9}, func(task *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		task.Charge(b.Host.Costs.AppHandler)
		var seq int
		fmt.Sscanf(string(data), "%d", &seq)
		r.received = append(r.received, seq)
		r.at = append(r.at, task.Now())
	})
	if err != nil {
		t.Fatal(err)
	}
	r.capp, err = a.OpenUDP(plexus.UDPAppOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// sendN schedules n datagrams, one every spacing, starting at spacing.
func (r *udpRig) sendN(n int, spacing sim.Time) {
	for i := 0; i < n; i++ {
		seq := i
		r.a.SpawnAt(sim.Time(i+1)*spacing, "sender", func(task *sim.Task) {
			payload := fmt.Sprintf("%06d", seq)
			if err := r.capp.Send(task, r.b.Addr(), 9, []byte(payload)); err != nil {
				r.t.Errorf("send %d: %v", seq, err)
			}
			r.sent++
		})
	}
	r.net.Sim.Run()
}

func TestInjectorLossObservedEndToEnd(t *testing.T) {
	r := newUDPRig(t, 11)
	r.in.Lose(fault.Bernoulli{P: 0.3})
	r.sendN(200, sim.Millisecond)

	st := r.in.Stats()
	if st.Lost == 0 {
		t.Fatal("no frames lost at 30% Bernoulli")
	}
	if got := len(r.received); got != r.sent-int(st.Lost) {
		t.Errorf("delivered %d, sent %d, lost %d: counts disagree", got, r.sent, st.Lost)
	}
	if got := r.net.Link.Dropped(); got != st.Lost+st.Partitioned+st.Flapped {
		t.Errorf("link counted %d drops, injector %+v", got, st)
	}
}

func TestInjectorDuplicateDeliversTwice(t *testing.T) {
	r := newUDPRig(t, 5)
	r.in.Duplicate(&fault.EveryNth{N: 2})
	r.sendN(100, sim.Millisecond)

	st := r.in.Stats()
	if st.Duplicated != 50 {
		t.Fatalf("duplicated %d frames, want 50", st.Duplicated)
	}
	// UDP has no duplicate suppression: every copy reaches the app.
	if got := len(r.received); got != 150 {
		t.Errorf("delivered %d datagrams, want 150", got)
	}
}

func TestInjectorCorruptionCaughtByChecksum(t *testing.T) {
	r := newUDPRig(t, 5)
	// Eth(14)+IP(20)+UDP(8) = 42; offset 45 lands in the payload, so the UDP
	// checksum — not the IP header checksum — must catch it.
	r.in.Corrupt(&fault.FlipByte{Offset: 45, MinSize: 46, Max: 3})
	r.sendN(50, sim.Millisecond)

	st := r.in.Stats()
	if st.Mangled != 3 {
		t.Fatalf("mangled %d frames, want 3", st.Mangled)
	}
	if got := len(r.received); got != r.sent-3 {
		t.Errorf("delivered %d of %d with 3 mangled: checksum let one through", got, r.sent)
	}
}

func TestInjectorJitterReorders(t *testing.T) {
	r := newUDPRig(t, 7)
	r.in.Delay(fault.Jitter{P: 0.5, Max: 4 * sim.Millisecond})
	r.sendN(60, 100*sim.Microsecond)

	if len(r.received) != 60 {
		t.Fatalf("jitter must not lose frames: delivered %d/60", len(r.received))
	}
	ooo := 0
	for i := 1; i < len(r.received); i++ {
		if r.received[i] < r.received[i-1] {
			ooo++
		}
	}
	if ooo == 0 {
		t.Error("no reordering observed under 4ms jitter at 100µs spacing")
	}
	if r.in.Stats().Delayed == 0 {
		t.Error("Delayed counter stayed zero")
	}
}

func TestScenarioFlapDropsCarrierWindow(t *testing.T) {
	r := newUDPRig(t, 3)
	sc := r.in.Scenario()
	// Sends land every 1ms over (0, 100ms]; carrier out for (20ms, 40ms].
	sc.DownAt(20 * sim.Millisecond)
	sc.UpAt(40 * sim.Millisecond)
	r.sendN(100, sim.Millisecond)

	st := r.in.Stats()
	if sc.Flaps() != 1 {
		t.Errorf("Flaps() = %d, want 1", sc.Flaps())
	}
	if st.Flapped == 0 {
		t.Fatal("no frames dropped during the outage")
	}
	if got := len(r.received); got != r.sent-int(st.Flapped) {
		t.Errorf("delivered %d, sent %d, flap-dropped %d: counts disagree", got, r.sent, st.Flapped)
	}
	// Roughly a fifth of the sends fall in the 20ms window.
	if st.Flapped < 15 || st.Flapped > 25 {
		t.Errorf("outage swallowed %d frames, expected ≈20", st.Flapped)
	}
}

func TestScenarioPartitionAndHeal(t *testing.T) {
	r := newUDPRig(t, 3)
	sc := r.in.Scenario()
	aSide := []view.MAC{r.a.NIC.MAC()}
	bSide := []view.MAC{r.b.NIC.MAC()}
	sc.PartitionAt(0, aSide, bSide)
	sc.HealAt(50 * sim.Millisecond)
	r.sendN(100, sim.Millisecond)

	st := r.in.Stats()
	if st.Partitioned == 0 {
		t.Fatal("partition dropped nothing")
	}
	if got := len(r.received); got != r.sent-int(st.Partitioned) {
		t.Errorf("delivered %d, sent %d, partitioned %d: counts disagree",
			got, r.sent, st.Partitioned)
	}
	// Everything before the heal is cut, everything after flows.
	if len(r.received) == 0 {
		t.Error("heal did not restore traffic")
	}
	for _, seq := range r.received {
		if seq < 48 {
			t.Errorf("datagram %d crossed the partition before the heal", seq)
			break
		}
	}
}

func TestInjectorResetQuietsThePlane(t *testing.T) {
	r := newUDPRig(t, 9)
	r.in.Lose(fault.Bernoulli{P: 1}).Corrupt(&fault.FlipByte{Offset: 45, MinSize: 46})
	r.in.Partition([]view.MAC{r.a.NIC.MAC()}, []view.MAC{r.b.NIC.MAC()})
	r.in.Reset()
	r.sendN(50, sim.Millisecond)
	if len(r.received) != 50 {
		t.Errorf("after Reset, delivered %d/50", len(r.received))
	}
}

// Two runs under the same seed must produce the identical delivery sequence
// and identical fault counters — the property the whole experiment suite
// rests on.
func TestInjectorDeterministicUnderSeed(t *testing.T) {
	run := func() ([]int, fault.Stats, uint64) {
		r := newUDPRig(t, 99)
		r.in.Lose(fault.Bernoulli{P: 0.2}).
			Lose(fault.Burst(0.05, 4)).
			Corrupt(fault.BitFlip{P: 0.05}).
			Duplicate(fault.Bernoulli{P: 0.1}).
			Delay(fault.Jitter{P: 0.3, Max: 2 * sim.Millisecond})
		r.in.Scenario().FlapEvery(30*sim.Millisecond, 60*sim.Millisecond, 10*sim.Millisecond, 3)
		r.sendN(300, sim.Millisecond)
		return r.received, r.in.Stats(), r.net.Sim.Executed()
	}
	seq1, st1, ev1 := run()
	seq2, st2, ev2 := run()
	if st1 != st2 {
		t.Fatalf("fault counters diverged: %+v vs %+v", st1, st2)
	}
	if ev1 != ev2 {
		t.Fatalf("event counts diverged: %d vs %d", ev1, ev2)
	}
	if len(seq1) != len(seq2) {
		t.Fatalf("delivery counts diverged: %d vs %d", len(seq1), len(seq2))
	}
	for i := range seq1 {
		if seq1[i] != seq2[i] {
			t.Fatalf("delivery order diverged at %d: %d vs %d", i, seq1[i], seq2[i])
		}
	}
	if st1.Lost == 0 || st1.Duplicated == 0 || st1.Delayed == 0 || st1.Flapped == 0 {
		t.Errorf("scenario too quiet to prove determinism: %+v", st1)
	}
}

// One seeded injector with every model class, a partition and a flap: its
// counters and every datagram's delivery instant are pinned. A change in
// the order the fault plane draws from the PRNG, or in where the link
// consults it, moves a number here.
func TestInjectorTimelinePinned(t *testing.T) {
	r := newUDPRig(t, 42)
	r.in.Lose(fault.Bernoulli{P: 0.1}).
		Lose(fault.Burst(0.05, 3)).
		Corrupt(fault.BitFlip{P: 0.2}).
		Duplicate(fault.Bernoulli{P: 0.1}).
		Delay(fault.Jitter{P: 0.3, Max: 2 * sim.Millisecond})
	sc := r.in.Scenario()
	sc.PartitionAt(10*sim.Millisecond, []view.MAC{r.a.NIC.MAC()}, []view.MAC{r.b.NIC.MAC()})
	sc.HealAt(14 * sim.Millisecond)
	sc.DownAt(25 * sim.Millisecond)
	sc.UpAt(29 * sim.Millisecond)
	r.sendN(40, sim.Millisecond)

	want := fault.Stats{Lost: 3, Mangled: 3, Duplicated: 3, Delayed: 5, Partitioned: 4, Flapped: 4}
	if st := r.in.Stats(); st != want {
		t.Errorf("Stats = %+v, want %+v", st, want)
	}
	var got []string
	for i, seq := range r.received {
		got = append(got, fmt.Sprintf("%d@%d", seq, r.at[i]))
	}
	const wantTimeline = "0@1221120 1@2221120 2@3221120 4@5221120 3@5384219 5@6221120 7@8259608 " +
		"8@9221120 14@15722111 16@17221120 17@18221120 18@19221120 19@20221120 21@22221120 " +
		"20@22411692 22@23221120 22@23313680 23@24221120 28@29221120 29@30221120 32@33221120 " +
		"34@35221120 33@36212101 35@36304661 35@36397221 36@37221120 37@38221120 38@39221120 " +
		"38@39313680 39@40221120"
	if s := strings.Join(got, " "); s != wantTimeline {
		t.Errorf("deliveries:\n got %s\nwant %s", s, wantTimeline)
	}
}

// A cut carrier discards what is offered to it at every site that offers a
// frame — a NIC transmit, a switch port's egress and a boundary drain — and
// the injector counts each one as Flapped.
func TestFlappedCountsEveryOfferingSite(t *testing.T) {
	gw := spinSpec("gw")
	top, err := plexus.NewShardedTopology(1, &gw, []plexus.SegmentSpec{
		{Name: "lan0", Model: netdev.EthernetModel(), Switched: true,
			Subnet: view.IP4{10, 0, 1, 0}, Hosts: []plexus.HostSpec{spinSpec("h")}},
		{Name: "lan1", Model: netdev.EthernetModel(), Switched: true,
			Subnet: view.IP4{10, 0, 2, 0}, Hosts: []plexus.HostSpec{spinSpec("far")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	top.PrimeARPSparse()
	seg := top.Segments[0]
	h, gwIf := seg.Hosts[0], seg.GW
	// Cables[0] is h's cable; the last is the uplink, the boundary's side
	// in this segment's shard.
	cable := fault.Attach(top.Sims[1], seg.Cables[0])
	uplink := fault.Attach(top.Sims[1], seg.Cables[len(seg.Cables)-1])
	uplink.Scenario().DownAt(0)
	cable.Scenario().DownAt(3 * sim.Millisecond)

	send := func(from *plexus.Stack, at sim.Time, to view.IP4) {
		app, err := from.OpenUDP(plexus.UDPAppOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		from.SpawnAt(at, "send", func(task *sim.Task) { _ = app.Send(task, to, 9, []byte("x")) })
	}
	delivered := 0
	for _, st := range []*plexus.Stack{h, gwIf} {
		if _, err := st.OpenUDP(plexus.UDPAppOptions{Port: 9}, func(*sim.Task, []byte, view.IP4, uint16) {
			delivered++
		}); err != nil {
			t.Fatal(err)
		}
	}
	// 1ms: h's frame crosses its cable, and the switch floods it out of
	// the uplink port onto the cut carrier.
	send(h, sim.Millisecond, gwIf.Addr())
	top.Run(1500*sim.Microsecond, 1)
	if c, u := cable.Stats().Flapped, uplink.Stats().Flapped; c != 0 || u != 1 {
		t.Fatalf("after a switch egress: cable flapped %d, uplink %d; want 0, 1", c, u)
	}
	// 2ms: the gateway's frame crosses the boundary and is drained onto the
	// cut carrier.
	send(gwIf, 2*sim.Millisecond, h.Addr())
	top.Run(2500*sim.Microsecond, 1)
	if c, u := cable.Stats().Flapped, uplink.Stats().Flapped; c != 0 || u != 2 {
		t.Fatalf("after a boundary drain: cable flapped %d, uplink %d; want 0, 2", c, u)
	}
	// 4ms: h's NIC transmits onto its own cut cable.
	send(h, 4*sim.Millisecond, gwIf.Addr())
	top.Run(10*sim.Millisecond, 1)
	if c, u := cable.Stats().Flapped, uplink.Stats().Flapped; c != 1 || u != 2 {
		t.Fatalf("after a NIC transmit: cable flapped %d, uplink %d; want 1, 2", c, u)
	}
	if delivered != 0 {
		t.Errorf("%d datagrams crossed a cut carrier", delivered)
	}
	if c, u := seg.Cables[0].Dropped(), seg.Cables[len(seg.Cables)-1].Dropped(); c != 1 || u != 2 {
		t.Errorf("links dropped %d (cable) and %d (uplink), want the injectors' 1 and 2", c, u)
	}
}

package plexus

// End-to-end ladder tests for the congestion-control plane, on a real wire
// with the fault-injection plane supplying the losses. These complement the
// white-box policy tests in internal/tcp: NewReno's partial-ACK ladder, the
// SACK scoreboard surviving a lost retransmission, the delayed-ACK clock
// leaking into Karn/Jacobson RTT estimates, the RFC 793 WL1/WL2 freshness
// rule under genuine reordering, and the CUBIC/BBR algorithms carrying a
// lossy transfer end to end.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"plexus/internal/fault"
	"plexus/internal/netdev"
	"plexus/internal/sim"
	"plexus/internal/tcp"
)

// ccSpec is spinSpec with a congestion-control algorithm selected.
func ccSpec(name, algo string) HostSpec {
	sp := spinSpec(name)
	sp.CC = algo
	return sp
}

// ccTransfer is recoveryTransfer generalised over host specs: a one-way
// transfer under a prepared injector, returning the sender's connection, the
// received byte count, and the simulated time the last byte arrived.
func ccTransfer(t *testing.T, a, b HostSpec, size int, horizon sim.Time, noSack bool, prepare func(*Network, *fault.Injector)) (*tcp.Conn, int, sim.Time) {
	t.Helper()
	n, client, server, err := TwoHosts(1, netdev.EthernetModel(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	in := fault.Attach(n.Sim, n.Link)
	if prepare != nil {
		prepare(n, in)
	}
	var got int
	var done sim.Time
	_, err = server.ListenTCP(80, TCPAppOptions{
		OnRecv: func(task *sim.Task, conn *TCPApp, data []byte) {
			got += len(data)
			done = n.Sim.Now()
		},
		OnPeerFin: func(task *sim.Task, conn *TCPApp) { conn.Close(task) },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sender *TCPApp
	msg := make([]byte, size)
	client.Spawn("client", func(task *sim.Task) {
		sender, err = client.ConnectTCP(task, server.Addr(), 80, TCPAppOptions{
			NoSack: noSack,
			OnEstablished: func(t2 *sim.Task, conn *TCPApp) {
				_ = conn.Send(t2, msg)
				conn.Close(t2)
			},
		})
		if err != nil {
			t.Errorf("connect: %v", err)
		}
	})
	n.Sim.RunUntil(horizon)
	if sender == nil || sender.Conn() == nil {
		t.Fatal("connection never established")
	}
	return sender.Conn(), got, done
}

// dropNths kills the Kth, then the Lth, ... data-bearing frame (≥1000 wire
// bytes), counting every qualifying frame including retransmissions.
type dropNths struct {
	ks   []int
	seen int
}

func (d *dropNths) Drop(rng *rand.Rand, wire []byte) bool {
	if len(wire) < 1000 {
		return false
	}
	d.seen++
	for _, k := range d.ks {
		if d.seen == k {
			return true
		}
	}
	return false
}

// Two segments lost from the same flight, with SACK withheld so recovery
// runs on cumulative ACKs alone: NewReno enters fast recovery on the first
// loss, and the ACK for its retransmission is only *partial* — it advances
// una to the second hole, not to snd.recover. RFC 6582 demands the partial
// ACK immediately retransmit the next hole and stay in recovery, so the
// whole episode costs one fast-recovery entry, at least one partial ACK,
// and no RTO.
func TestNewRenoPartialAckLadder(t *testing.T) {
	const size = 64 << 10
	conn, got, _ := ccTransfer(t, spinSpec("a"), spinSpec("b"), size, 60*sim.Second, true,
		func(n *Network, in *fault.Injector) {
			in.Lose(&dropNths{ks: []int{10, 12}})
		})
	cs := conn.Stats()
	if got != size {
		t.Fatalf("transfer incomplete: %d/%d", got, size)
	}
	if cs.FastRecoveries != 1 {
		t.Errorf("FastRecoveries = %d, want 1 (both holes inside one episode)", cs.FastRecoveries)
	}
	if cs.PartialAcks == 0 {
		t.Error("PartialAcks = 0; the second hole should have produced a partial ACK")
	}
	if cs.RTOExpiries != 0 {
		t.Errorf("RTOExpiries = %d; the partial-ACK ladder should have beaten the timer", cs.RTOExpiries)
	}
}

// dropSeqTwice kills the Kth data-bearing frame and then the first
// retransmission carrying the same sequence number — the scoreboard's
// hardest case, a lost retransmission inside fast recovery.
type dropSeqTwice struct {
	k      int
	seen   int
	armed  bool
	target uint32
	drops  int
}

func (d *dropSeqTwice) Drop(rng *rand.Rand, wire []byte) bool {
	if len(wire) < 1000 {
		return false
	}
	// Ethernet 14B + IPv4 20B; the TCP sequence number sits 4B into the
	// transport header.
	seq := binary.BigEndian.Uint32(wire[14+20+4:])
	if d.armed {
		if d.drops < 2 && seq == d.target {
			d.drops++
			return true
		}
		return false
	}
	d.seen++
	if d.seen == d.k {
		d.armed, d.target, d.drops = true, seq, 1
		return true
	}
	return false
}

// Retransmit-lost-retransmit: the scoreboard keeps reporting the hole after
// the first repair attempt dies on the wire, so the sender must repair it
// again — the transfer completes and the victim sequence number is sent
// three times in total (original plus two repairs).
func TestSackRetransmitLostRetransmit(t *testing.T) {
	const size = 64 << 10
	conn, got, _ := ccTransfer(t, spinSpec("a"), spinSpec("b"), size, 120*sim.Second, false,
		func(n *Network, in *fault.Injector) {
			in.Lose(&dropSeqTwice{k: 10})
		})
	cs := conn.Stats()
	if got != size {
		t.Fatalf("transfer incomplete after lost retransmission: %d/%d", got, size)
	}
	if cs.Retransmits < 2 {
		t.Errorf("Retransmits = %d, want >= 2 (the hole was repaired twice)", cs.Retransmits)
	}
	if cs.SacksRcvd == 0 {
		t.Error("SacksRcvd = 0; SACK negotiation failed")
	}
	if cs.SackRexmits == 0 {
		t.Error("SackRexmits = 0; the scoreboard never drove a selective retransmission")
	}
}

// A trickle sender — one small segment every 250ms — never gives the
// receiver a second segment to ACK immediately, so every ACK waits out the
// 200ms delayed-ACK timer. Karn/Jacobson sampling cannot tell queueing from
// deliberation: the delay lands in SRTT, which is exactly why the RTO floor
// must exceed the peer's delayed-ACK timer.
func TestDelayedAckInflatesRTTEstimate(t *testing.T) {
	n, client, server, err := TwoHosts(1, netdev.EthernetModel(), spinSpec("a"), spinSpec("b"))
	if err != nil {
		t.Fatal(err)
	}
	var got int
	_, err = server.ListenTCP(80, TCPAppOptions{
		OnRecv:    func(task *sim.Task, conn *TCPApp, data []byte) { got += len(data) },
		OnPeerFin: func(task *sim.Task, conn *TCPApp) { conn.Close(task) },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const chunks, chunk = 20, 100
	var sender *TCPApp
	chunkData := make([]byte, chunk)
	client.Spawn("trickle", func(task *sim.Task) {
		sender, err = client.ConnectTCP(task, server.Addr(), 80, TCPAppOptions{
			OnEstablished: func(t2 *sim.Task, conn *TCPApp) {
				_ = conn.Send(t2, chunkData)
			},
		})
		if err != nil {
			t.Errorf("connect: %v", err)
		}
	})
	for i := 1; i < chunks; i++ {
		at := sim.Time(i) * 250 * sim.Millisecond
		last := i == chunks-1
		client.SpawnAt(at, fmt.Sprintf("trickle-%d", i), func(task *sim.Task) {
			_ = sender.Send(task, chunkData)
			if last {
				sender.Close(task)
			}
		})
	}
	n.Sim.RunUntil(30 * sim.Second)
	if got != chunks*chunk {
		t.Fatalf("transfer incomplete: %d/%d", got, chunks*chunk)
	}
	if da := server.TCP.Stats().DelayedAcks; da == 0 {
		t.Error("DelayedAcks = 0 on the receiver; the delayed-ACK timer never fired")
	}
	cs := sender.Conn().Stats()
	if cs.Retransmits != 0 {
		t.Errorf("Retransmits = %d on a lossless trickle; delayed ACKs must not trip the RTO", cs.Retransmits)
	}
	if srtt := sender.Conn().SRTT(); srtt < 150*sim.Millisecond {
		t.Errorf("SRTT = %v; the 200ms delayed-ACK clock should dominate a ~µs-RTT wire", srtt)
	}
}

// Heavy per-frame jitter reorders segments in both directions. The WL1/WL2
// freshness rule (RFC 793) must refuse the late-arriving window
// advertisements — each refusal is a segment that would previously have
// rolled the send window backwards — and the transfer still completes.
func TestWindowFreshnessUnderReordering(t *testing.T) {
	const size = 256 << 10
	conn, got, _ := ccTransfer(t, spinSpec("a"), spinSpec("b"), size, 120*sim.Second, false,
		func(n *Network, in *fault.Injector) {
			in.Delay(fault.Jitter{P: 0.5, Max: 2 * sim.Millisecond})
		})
	cs := conn.Stats()
	if got != size {
		t.Fatalf("transfer incomplete under reordering: %d/%d", got, size)
	}
	if cs.StaleWndUpdates == 0 {
		t.Error("StaleWndUpdates = 0 under heavy reordering; the freshness rule never engaged")
	}
}

// Each algorithm, with and without SACK, must carry a transfer across a
// lossy wire end to end, selected purely through the host spec. At 8 % loss
// every algorithm takes fast recovery, partial ACKs and a retransmission
// timeout. The outcome of every cell is pinned: the completion time, the loss
// counters and the final window are what the window arithmetic produced, so
// a change to how the window is computed that moves any of them fails here.
func TestAlternateAlgorithmsLossyTransfer(t *testing.T) {
	type outcome struct {
		done                                           sim.Time
		retransmits, fastRecoveries, partialAcks, rtos uint64
		cwnd, ssthresh                                 uint32
	}
	cases := []struct {
		algo   string
		noSack bool
		want   outcome
	}{
		{"newreno", false, outcome{5658067040, 14, 7, 3, 4, 1460, 2920}},
		{"newreno", true, outcome{5658018040, 14, 7, 3, 4, 1460, 2920}},
		{"cubic", false, outcome{4253409240, 15, 6, 3, 3, 6277, 6277}},
		{"cubic", true, outcome{3859842680, 12, 7, 2, 3, 4380, 5467}},
		{"bbr", false, outcome{2062654775, 18, 8, 3, 1, 9132, 65535}},
		{"bbr", true, outcome{1460036513, 15, 8, 7, 0, 9092, 65535}},
	}
	for _, tc := range cases {
		name := tc.algo
		if tc.noSack {
			name += "/nosack"
		}
		t.Run(name, func(t *testing.T) {
			const size = 256 << 10
			conn, got, done := ccTransfer(t, ccSpec("a", tc.algo), spinSpec("b"), size, 300*sim.Second, tc.noSack,
				func(n *Network, in *fault.Injector) {
					in.Lose(fault.MinSize{N: 1000, M: fault.Bernoulli{P: 0.08}})
				})
			if name := conn.CCName(); name != tc.algo {
				t.Fatalf("CCName() = %q, want %q", name, tc.algo)
			}
			if got != size {
				t.Fatalf("transfer incomplete: %d/%d", got, size)
			}
			cs := conn.Stats()
			out := outcome{done, cs.Retransmits, cs.FastRecoveries, cs.PartialAcks, cs.RTOExpiries, conn.Cwnd(), conn.Ssthresh()}
			if out != tc.want {
				t.Errorf("outcome = %+v\nwant      %+v", out, tc.want)
			}
		})
	}
}

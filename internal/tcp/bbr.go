// A BBR-style model-based sender (after Cardwell et al., "BBR:
// Congestion-Based Congestion Control"): instead of reacting to loss, it
// estimates the path's bottleneck bandwidth (windowed max of per-round
// delivery rate) and round-trip propagation delay (windowed min RTT), paces
// transmission at a gain times the bandwidth estimate, and caps inflight at
// a gain times the bandwidth-delay product. Pacing rides the simulator's
// timer wheel, so the pacing clock is exact and deterministic.
//
// This is the published algorithm's skeleton — STARTUP/DRAIN/PROBE_BW with
// an 8-phase pacing-gain cycle — without PROBE_RTT (the min-RTT filter
// simply expires) or the later BBRv2 inflight bounds.
package tcp

import "plexus/internal/sim"

const (
	// bbrHighGain is 2/ln2: fast enough to double the sending rate each
	// round during STARTUP.
	bbrHighGain = 2.885
	// bbrCwndGain bounds inflight at this multiple of the estimated BDP.
	bbrCwndGain = 2.0
	// bbrBwWindow is the bandwidth filter length in round trips.
	bbrBwWindow = 10
	// bbrMinRTTExpiry re-opens the min-RTT filter after this long.
	bbrMinRTTExpiry = 10 * sim.Second
	// bbrInitialCwnd seeds the window before the model has any samples.
	bbrInitialCwnd = 10
)

// bbrProbeGains is the PROBE_BW pacing-gain cycle: probe above the estimate
// for one phase, drain the surplus the next, then cruise.
var bbrProbeGains = [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

type bbrMode uint8

const (
	bbrStartup bbrMode = iota
	bbrDrain
	bbrProbeBW
)

type bbr struct {
	mode       bbrMode
	pacingGain float64
	cwndGain   float64

	// Bandwidth filter: max delivery rate (bytes/sec) over the last
	// bbrBwWindow rounds, as a ring of per-round maxima.
	bwRing [bbrBwWindow]float64
	bwIdx  int
	btlBw  float64

	// Round accounting: a round ends when snd.una passes the snd.nxt
	// recorded at its start.
	roundBytes   uint64
	roundStart   sim.Time
	nextRoundSeq uint32
	roundValid   bool

	// Min-RTT filter.
	minRTT   sim.Time
	minRTTAt sim.Time

	// STARTUP full-pipe detection: three rounds without 25% bandwidth
	// growth means the pipe is full.
	fullBw      float64
	fullBwCount int

	// PROBE_BW gain-cycle phase.
	cycleIdx int
}

func newBBR() CongestionControl {
	return &bbr{mode: bbrStartup, pacingGain: bbrHighGain, cwndGain: bbrHighGain}
}

func (*bbr) Name() string { return "bbr" }

func (b *bbr) Init(c *Conn) {
	c.snd.ssthresh = initialSsthresh
	c.setCwnd(bbrInitialCwnd * c.mss)
}

func (b *bbr) OnRTTSample(c *Conn, rtt sim.Time) {
	now := c.mgr.host.Sim.Now()
	if b.minRTT == 0 || rtt < b.minRTT || now-b.minRTTAt > bbrMinRTTExpiry {
		b.minRTT = rtt
		b.minRTTAt = now
	}
}

func (b *bbr) OnAck(c *Conn, acked uint32) {
	now := c.mgr.host.Sim.Now()
	if !b.roundValid {
		b.roundValid = true
		b.roundStart = now
		b.nextRoundSeq = c.snd.nxt
	}
	b.roundBytes += uint64(acked)
	if seqGE(c.snd.una, b.nextRoundSeq) {
		b.endRound(c, now)
	}
	b.updateCwnd(c)
}

// endRound closes one round trip: fold its delivery rate into the bandwidth
// filter, advance the state machine, and start the next round.
func (b *bbr) endRound(c *Conn, now sim.Time) {
	if elapsed := now - b.roundStart; elapsed > 0 {
		rate := float64(b.roundBytes) * float64(sim.Second) / float64(elapsed)
		b.bwIdx = (b.bwIdx + 1) % bbrBwWindow
		b.bwRing[b.bwIdx] = rate
		b.btlBw = 0
		for _, v := range b.bwRing {
			if v > b.btlBw {
				b.btlBw = v
			}
		}
	}
	b.roundBytes = 0
	b.roundStart = now
	b.nextRoundSeq = c.snd.nxt

	switch b.mode {
	case bbrStartup:
		if b.btlBw > b.fullBw*1.25 {
			b.fullBw = b.btlBw
			b.fullBwCount = 0
		} else if b.fullBwCount++; b.fullBwCount >= 3 {
			b.mode = bbrDrain
			b.pacingGain = 1 / bbrHighGain
			b.cwndGain = bbrCwndGain
		}
	case bbrDrain:
		if uint64(c.flightSize()) <= b.bdp() {
			b.enterProbeBW()
		}
	case bbrProbeBW:
		// Advance the gain cycle once per round; skip the drain phase early
		// if the surplus is already gone.
		b.cycleIdx = (b.cycleIdx + 1) % len(bbrProbeGains)
		b.pacingGain = bbrProbeGains[b.cycleIdx]
	}
}

func (b *bbr) enterProbeBW() {
	b.mode = bbrProbeBW
	b.cycleIdx = 2 // start in a cruise phase, deterministically
	b.pacingGain = bbrProbeGains[b.cycleIdx]
	b.cwndGain = bbrCwndGain
}

// bdp is the estimated bandwidth-delay product in bytes.
func (b *bbr) bdp() uint64 {
	if b.btlBw <= 0 || b.minRTT <= 0 {
		return 0
	}
	return uint64(b.btlBw * float64(b.minRTT) / float64(sim.Second))
}

func (b *bbr) updateCwnd(c *Conn) {
	bdp := b.bdp()
	if bdp == 0 {
		return // no model yet: hold the initial window
	}
	w := uint64(b.cwndGain * float64(bdp))
	if min := uint64(4 * c.mss); w < min {
		w = min
	}
	if w > maxCwnd {
		w = maxCwnd
	}
	c.setCwnd(uint32(w))
}

// PacingDelay spaces segments at pacingGain times the bottleneck-bandwidth
// estimate. Before the first bandwidth sample the sender is ACK-clocked.
func (b *bbr) PacingDelay(c *Conn, bytes uint32) sim.Time {
	rate := b.pacingGain * b.btlBw
	if rate <= 0 {
		return 0
	}
	return sim.Time(float64(bytes) * float64(sim.Second) / rate)
}

// BBR does not react to loss as a congestion signal, it trusts the model:
// fast recovery leaves ssthresh and cwnd alone.
func (*bbr) OnEnterRecovery(*Conn)      {}
func (*bbr) OnDupAck(*Conn)             {}
func (*bbr) OnPartialAck(*Conn, uint32) {}
func (*bbr) OnExitRecovery(*Conn)       {}

// OnRTO applies packet conservation: cut to a conservative window and let
// the model rebuild it; the filters survive (a timeout does not erase what
// the path could do).
func (b *bbr) OnRTO(c *Conn) {
	c.setCwnd(4 * c.mss)
	b.roundValid = false
	b.roundBytes = 0
}

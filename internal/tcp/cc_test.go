package tcp

// White-box ladder tests for the congestion-control plane: RFC 3465 byte
// counting and the ssthresh-crossing clamp, NewReno's reduction policy, the
// global cwnd clamps, the SACK scoreboard's merge/advance/hole arithmetic,
// the RFC 793 WL1/WL2 window-update freshness rule, the configurable RTO
// floor, and a zero-alloc pin over the per-ACK hot path. End-to-end recovery
// behaviour (partial ACKs on a real wire, retransmit-lost-retransmit, the
// delayed-ACK clock) is exercised in internal/plexus.

import (
	"testing"

	"plexus/internal/sim"
)

// ccTestConn builds a bare connection bound to algo with the given windows.
func ccTestConn(s *sim.Sim, algo string, mss, cwnd, ssthresh uint32) *Conn {
	c := &Conn{mgr: &Manager{sim: s}, mss: mss, rto: initialRTO}
	c.snd.cwnd = cwnd
	c.snd.ssthresh = ssthresh
	c.cc = newCC(algo)
	c.cc.Init(c)
	return c
}

// A single ACK whose byte credit would carry cwnd past ssthresh must stop
// exactly at the crossing: the remainder belongs to congestion avoidance,
// which demands a full cwnd of acked bytes per MSS of growth.
func TestSlowStartClampsAtSsthreshCrossing(t *testing.T) {
	c := ccTestConn(sim.New(1), "newreno", 1000, 9000, 10000)
	c.cc.OnAck(c, 4000)
	if c.snd.cwnd != 10000 {
		t.Errorf("cwnd = %d, want exactly ssthresh (10000); slow start overshot the crossing", c.snd.cwnd)
	}
}

// RFC 3465 L=2·SMSS: one ACK may grow slow-start cwnd by at most two
// segments no matter how much it acknowledges, and the excess credit is
// discarded — a stretch ACK must not buy the whole burst's growth at once.
func TestSlowStartStretchAckCappedAtTwoMSS(t *testing.T) {
	c := ccTestConn(sim.New(1), "newreno", 1000, 2000, 100000)
	c.cc.OnAck(c, 10000)
	if c.snd.cwnd != 4000 {
		t.Errorf("cwnd = %d after 10000-byte stretch ACK, want 4000 (2·MSS growth)", c.snd.cwnd)
	}
	// The 8000 bytes beyond the cap must not have been banked.
	c.cc.OnAck(c, 1000)
	if c.snd.cwnd != 5000 {
		t.Errorf("cwnd = %d, want 5000; excess stretch-ACK credit was banked", c.snd.cwnd)
	}
}

// Congestion avoidance grows one MSS per cwnd's worth of acknowledged bytes,
// accumulated across ACKs (byte counting, not packet counting).
func TestCongestionAvoidanceByteCounting(t *testing.T) {
	c := ccTestConn(sim.New(1), "newreno", 1000, 10000, 10000)
	c.cc.OnAck(c, 6000)
	if c.snd.cwnd != 10000 {
		t.Errorf("cwnd = %d, want 10000 (6000 < cwnd acked, no growth yet)", c.snd.cwnd)
	}
	c.cc.OnAck(c, 4000)
	if c.snd.cwnd != 11000 {
		t.Errorf("cwnd = %d, want 11000 (a full cwnd of bytes acked)", c.snd.cwnd)
	}
}

// RFC 5681: ssthresh after loss is max(FlightSize/2, 2·SMSS).
func TestSsthreshAfterLossFloor(t *testing.T) {
	c := ccTestConn(sim.New(1), "newreno", 1000, 64000, 64000)
	c.snd.una, c.snd.nxt = 5000, 8000 // flight 3000: half is below the floor
	if got := c.cc.SsthreshAfterLoss(c); got != 2000 {
		t.Errorf("ssthresh = %d for 3000-byte flight, want the 2·MSS floor (2000)", got)
	}
	c.snd.nxt = 25000 // flight 20000
	if got := c.cc.SsthreshAfterLoss(c); got != 10000 {
		t.Errorf("ssthresh = %d for 20000-byte flight, want 10000", got)
	}
}

// setCwnd enforces the global clamps: never below one MSS, never above
// maxCwnd — no matter what an algorithm asks for.
func TestCwndGlobalClamps(t *testing.T) {
	c := ccTestConn(sim.New(1), "newreno", 1460, 10000, 10000)
	c.setCwnd(10)
	if c.snd.cwnd != 1460 {
		t.Errorf("cwnd = %d, want the 1-MSS floor", c.snd.cwnd)
	}
	c.setCwnd(1 << 30)
	if c.snd.cwnd != maxCwnd {
		t.Errorf("cwnd = %d, want the maxCwnd clamp (%d)", c.snd.cwnd, maxCwnd)
	}
	// Growth through OnAck must respect the cap too.
	c.snd.ssthresh = maxCwnd
	c.snd.cwnd = maxCwnd
	c.cc.OnAck(c, maxCwnd) // full-cwnd credit in avoidance
	if c.snd.cwnd != maxCwnd {
		t.Errorf("cwnd = %d grew past maxCwnd", c.snd.cwnd)
	}
}

// Unknown algorithm names must degrade to NewReno, not crash a sweep.
func TestCCRegistryFallback(t *testing.T) {
	if got := newCC("no-such-algorithm").Name(); got != "newreno" {
		t.Errorf("fallback algorithm = %q, want newreno", got)
	}
	names := CCNames()
	want := map[string]bool{"newreno": false, "cubic": false, "bbr": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("CCNames() = %v is missing %q", names, n)
		}
	}
}

// --- scoreboard ---

func sbRanges(sb *scoreboard) []sackBlock { return sb.r[:sb.n] }

func TestScoreboardMergeAndBridge(t *testing.T) {
	var sb scoreboard
	if !sb.add(sackBlock{100, 200}) || !sb.add(sackBlock{300, 400}) {
		t.Fatal("disjoint adds must report new information")
	}
	if sb.add(sackBlock{120, 180}) {
		t.Error("fully covered block reported as new information")
	}
	// Bridge the gap: one range [100,400) remains.
	if !sb.add(sackBlock{150, 350}) {
		t.Error("gap-bridging block must report new information")
	}
	if got := sbRanges(&sb); len(got) != 1 || got[0] != (sackBlock{100, 400}) {
		t.Errorf("ranges = %v, want [{100 400}]", got)
	}
	if sb.sackedBytes() != 300 {
		t.Errorf("sackedBytes = %d, want 300", sb.sackedBytes())
	}
}

func TestScoreboardAdvanceTrimsPartialOverlap(t *testing.T) {
	var sb scoreboard
	sb.add(sackBlock{100, 200})
	sb.add(sackBlock{300, 400})
	sb.advance(350) // first range gone, second trimmed to [350,400)
	if got := sbRanges(&sb); len(got) != 1 || got[0] != (sackBlock{350, 400}) {
		t.Errorf("ranges after advance(350) = %v, want [{350 400}]", got)
	}
}

func TestScoreboardNextHole(t *testing.T) {
	var sb scoreboard
	sb.add(sackBlock{200, 300})
	sb.add(sackBlock{400, 500})
	start, end, ok := sb.nextHole(100)
	if !ok || start != 100 || end != 200 {
		t.Errorf("nextHole(100) = [%d,%d) %v, want [100,200) true", start, end, ok)
	}
	start, end, ok = sb.nextHole(250)
	if !ok || start != 300 || end != 400 {
		t.Errorf("nextHole(250) = [%d,%d) %v, want [300,400) true", start, end, ok)
	}
	// Above the highest SACKed byte nothing is presumed lost.
	if _, _, ok = sb.nextHole(500); ok {
		t.Error("nextHole(500) found a hole above all SACKed data")
	}
}

// --- RFC 793 WL1/WL2 window-update freshness ---

func TestWindowUpdateFreshnessRule(t *testing.T) {
	c := ccTestConn(sim.New(1), "newreno", 1000, 10000, 10000)
	c.snd.wl1, c.snd.wl2, c.snd.wnd = 1000, 5000, 8000

	// A reordered segment with an older sequence number must not touch the
	// window, whatever it advertises.
	c.updateSndWnd(seg{seq: 900, ack: 6000, wnd: 100})
	if c.snd.wnd != 8000 {
		t.Errorf("stale-seq segment shrank snd.wnd to %d", c.snd.wnd)
	}
	// Same seq, older ack: also stale.
	c.updateSndWnd(seg{seq: 1000, ack: 4999, wnd: 100})
	if c.snd.wnd != 8000 {
		t.Errorf("stale-ack segment shrank snd.wnd to %d", c.snd.wnd)
	}
	if c.stats.StaleWndUpdates != 2 {
		t.Errorf("StaleWndUpdates = %d, want 2", c.stats.StaleWndUpdates)
	}
	// Same seq, same ack: a legitimate pure window update.
	c.updateSndWnd(seg{seq: 1000, ack: 5000, wnd: 9000})
	if c.snd.wnd != 9000 {
		t.Errorf("same-seq same-ack update refused; snd.wnd = %d, want 9000", c.snd.wnd)
	}
	// Fresher sequence number: accepted, and WL1/WL2 move forward.
	c.updateSndWnd(seg{seq: 2000, ack: 5000, wnd: 4000})
	if c.snd.wnd != 4000 || c.snd.wl1 != 2000 || c.snd.wl2 != 5000 {
		t.Errorf("fresh update not applied: wnd=%d wl1=%d wl2=%d", c.snd.wnd, c.snd.wl1, c.snd.wl2)
	}
}

// --- configurable RTO floor ---

func TestMinRTOConfigurableFloor(t *testing.T) {
	s := sim.New(1)
	run := func(floor sim.Time) sim.Time {
		c := &Conn{mgr: &Manager{sim: s, minRTO: floor}, rto: initialRTO}
		c.startRTT(100)
		c.sampleRTT(101) // zero-delay sample: srtt+4·rttvar is tiny
		return c.rto
	}
	if got := run(200 * sim.Millisecond); got != 200*sim.Millisecond {
		t.Errorf("rto = %v with a 200ms floor configured, want 200ms", got)
	}
	if got := run(0); got != minRTO {
		t.Errorf("rto = %v with no floor configured, want the %v default", got, minRTO)
	}
}

// --- zero-alloc pin ---

// The steady-state per-ACK path — congestion-control policy plus scoreboard
// bookkeeping — must not allocate for any algorithm.
func TestCCHotPathZeroAlloc(t *testing.T) {
	s := sim.New(1)
	for _, algo := range CCNames() {
		c := ccTestConn(s, algo, 1460, 14600, 64000)
		c.snd.una, c.snd.nxt = 1000, 15000
		var sb scoreboard
		seq := uint32(2000)
		allocs := testing.AllocsPerRun(1000, func() {
			c.cc.OnAck(c, 1460)
			c.cc.OnRTTSample(c, 3*sim.Millisecond)
			c.cc.PacingDelay(c, 1460)
			sb.add(sackBlock{seq, seq + 500})
			sb.nextHole(seq - 1000)
			sb.advance(seq - 500)
			seq += 1000
			if c.snd.cwnd > 1<<20 {
				c.snd.cwnd = 14600 // keep the run in steady state
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per ACK on the hot path, want 0", algo, allocs)
		}
	}
}

// The ACK clock re-arms the retransmit timer and arms and cancels the
// delayed-ACK timer once per segment or two: with the event free list warm, a
// whole arm / cancel cycle of both must allocate nothing.
func TestTimerArmStopZeroAlloc(t *testing.T) {
	s := sim.New(1)
	c := ccTestConn(s, "newreno", 1460, 14600, 64000)
	cycle := func() {
		c.armRexmit()
		c.scheduleDelayedACK()
		c.armRexmit() // re-arm: stops the pending timer first
		c.ackTimer.Stop()
		c.disarmRexmit()
		// Cancelled events leave the queue (and return to the free list)
		// when their time comes.
		s.RunUntil(s.Now() + 2*initialRTO)
	}
	cycle()
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("%v allocs per timer arm/stop cycle, want 0", allocs)
	}
	if c.rexmitTimer.Pending() || c.ackTimer.Pending() {
		t.Error("a cancelled timer is still pending")
	}
}

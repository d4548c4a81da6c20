package tcp

// White-box tests of the RTT estimator: Jacobson's smoothing and Karn's
// rule operate on a bare Conn with a clock, no network required. The
// end-to-end consequences (backoff under a link blackout, fast retransmit)
// are tested in internal/plexus against the fault-injection plane.

import (
	"testing"

	"plexus/internal/osmodel"
	"plexus/internal/sim"
)

func rttConn(s *sim.Sim) *Conn {
	return &Conn{mgr: &Manager{host: &osmodel.Host{Sim: s}}, rto: initialRTO}
}

func TestSampleRTTSeedsEstimator(t *testing.T) {
	s := sim.New(1)
	c := rttConn(s)
	c.startRTT(100)
	s.At(50*sim.Millisecond, "ack", func() { c.sampleRTT(101) })
	s.Run()
	if c.srtt != 50*sim.Millisecond {
		t.Errorf("srtt = %v, want 50ms", c.srtt)
	}
	if c.rttvar != 25*sim.Millisecond {
		t.Errorf("rttvar = %v, want 25ms (first sample: m/2)", c.rttvar)
	}
	// srtt + 4*rttvar = 150ms, below the floor.
	if c.rto != minRTO {
		t.Errorf("rto = %v, want the %v floor", c.rto, minRTO)
	}
}

func TestSampleRTTIgnoresUncoveringAck(t *testing.T) {
	s := sim.New(1)
	c := rttConn(s)
	c.startRTT(100)
	s.At(30*sim.Millisecond, "dup-ack", func() { c.sampleRTT(100) }) // does not cover seq 100
	s.At(80*sim.Millisecond, "ack", func() { c.sampleRTT(101) })
	s.Run()
	// The sample must time the full 80ms, not be consumed at 30ms.
	if c.srtt != 80*sim.Millisecond {
		t.Errorf("srtt = %v, want 80ms", c.srtt)
	}
}

// Karn's rule: once a segment is retransmitted, its ACK is ambiguous — it
// may acknowledge either transmission — so the in-flight sample must be
// discarded, never fed to the estimator.
func TestKarnDiscardsRetransmittedSample(t *testing.T) {
	s := sim.New(1)
	c := rttConn(s)
	c.startRTT(100)
	s.At(20*sim.Millisecond, "rexmit", func() { c.cancelRTT() }) // what onRexmitTimeout does
	s.At(70*sim.Millisecond, "ack", func() { c.sampleRTT(101) })
	s.Run()
	if c.srtt != 0 {
		t.Errorf("srtt = %v; ambiguous ACK was sampled despite Karn's rule", c.srtt)
	}
	if c.rto != initialRTO {
		t.Errorf("rto = %v, want untouched %v", c.rto, initialRTO)
	}
}

func TestSampleRTTOnePendingSampleAtATime(t *testing.T) {
	s := sim.New(1)
	c := rttConn(s)
	c.startRTT(100)
	s.At(10*sim.Millisecond, "second-start", func() { c.startRTT(500) }) // ignored: one timer
	s.At(40*sim.Millisecond, "ack", func() { c.sampleRTT(501) })
	s.Run()
	// The original seq-100 timing survives: 40ms, not 30ms.
	if c.srtt != 40*sim.Millisecond {
		t.Errorf("srtt = %v, want 40ms", c.srtt)
	}
}

func TestValidSampleResetsBackoff(t *testing.T) {
	s := sim.New(1)
	c := rttConn(s)
	c.backoff = 4 // as if four straight RTO expiries
	c.startRTT(100)
	s.At(25*sim.Millisecond, "ack", func() { c.sampleRTT(101) })
	s.Run()
	if c.backoff != 0 {
		t.Errorf("backoff = %d after a clean sample, want 0", c.backoff)
	}
}

func TestJacobsonConvergesTowardStableRTT(t *testing.T) {
	s := sim.New(1)
	c := rttConn(s)
	// Feed 20 identical 400ms samples; srtt must converge to 400ms and
	// rttvar decay toward zero (rto then sits at the 1s floor... only if
	// srtt+4*rttvar < minRTO; with srtt 400ms that holds once rttvar <
	// 150ms).
	seq := uint32(100)
	at := sim.Time(0)
	for i := 0; i < 20; i++ {
		sendAt, ackSeq := at, seq+1
		startSeq := seq
		s.At(sendAt, "send", func() { c.startRTT(startSeq) })
		s.At(sendAt+400*sim.Millisecond, "ack", func() { c.sampleRTT(ackSeq) })
		at += sim.Second
		seq++
	}
	s.Run()
	if d := c.srtt - 400*sim.Millisecond; d < -10*sim.Millisecond || d > 10*sim.Millisecond {
		t.Errorf("srtt = %v, want ≈400ms", c.srtt)
	}
	if c.rttvar > 60*sim.Millisecond {
		t.Errorf("rttvar = %v did not decay on a stable path", c.rttvar)
	}
	if c.rto < minRTO || c.rto > 700*sim.Millisecond && c.rto != minRTO {
		t.Errorf("rto = %v out of expected range", c.rto)
	}
}

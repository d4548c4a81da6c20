// CUBIC (RFC 8312) congestion control: window growth is a cubic function of
// time since the last reduction, anchored at W_max (the window where loss
// last occurred), with a TCP-friendly floor so short-RTT flows never do
// worse than Reno. All float arithmetic runs on simulated time, so results
// are bit-identical at any -parallel/-shards setting.
package tcp

import (
	"math"

	"plexus/internal/sim"
)

const (
	// cubicBeta is the multiplicative decrease factor (RFC 8312 §4.5).
	cubicBeta = 0.7
	// cubicC scales the cubic term (segments per second cubed).
	cubicC = 0.4
)

type cubic struct {
	renoWindow          // initial window, RFC 6582 recovery, byte-counting acc
	cnt        uint32   // segments acked toward the next cwnd increment
	wmax       float64  // window (segments) at the last reduction
	k          float64  // seconds for the cubic to regrow to wmax
	epoch      sim.Time // start of the current avoidance epoch (0 = unset)
	origin     float64  // cubic origin point (segments)
}

func newCubic() CongestionControl { return &cubic{} }

func (*cubic) Name() string                       { return "cubic" }
func (*cubic) OnRTTSample(*Conn, sim.Time)        {}
func (*cubic) PacingDelay(*Conn, uint32) sim.Time { return 0 }

func (cu *cubic) OnAck(c *Conn, acked uint32) {
	if c.snd.cwnd < c.snd.ssthresh {
		cu.acc += acked
		slowStartGrow(c, &cu.acc)
		if c.snd.cwnd < c.snd.ssthresh {
			return
		}
		// Crossed into avoidance: the leftover credit seeds the counter and
		// a fresh cubic epoch starts on the next ACK.
		cu.cnt += cu.acc / c.mss
		cu.acc = 0
		cu.epoch = 0
	}
	now := c.mgr.host.Sim.Now()
	mss := float64(c.mss)
	cwndSegs := float64(c.snd.cwnd) / mss
	if cu.epoch == 0 {
		cu.epoch = now
		if cwndSegs < cu.wmax {
			cu.origin = cu.wmax
			cu.k = math.Cbrt((cu.wmax - cwndSegs) / cubicC)
		} else {
			cu.origin = cwndSegs
			cu.k = 0
		}
	}
	// Target one SRTT ahead, per RFC 8312 §4.1.
	t := float64(now-cu.epoch+c.srtt) / float64(sim.Second)
	d := t - cu.k
	target := cu.origin + cubicC*d*d*d
	// TCP-friendly region (RFC 8312 §4.2): never slower than an equivalent
	// AIMD flow with the matched beta.
	rtt := float64(c.srtt) / float64(sim.Second)
	if rtt <= 0 {
		rtt = 0.1
	}
	if est := cu.wmax*cubicBeta + 3*(1-cubicBeta)/(1+cubicBeta)*(t/rtt); est > target {
		target = est
	}
	if target <= cwndSegs {
		return // at or above the curve: hold
	}
	// Spread the climb to target over roughly one window of ACKed segments
	// (the classic cwnd_cnt formulation, byte-counted).
	cu.acc += acked
	cu.cnt += cu.acc / c.mss
	cu.acc %= c.mss
	step := cwndSegs / (target - cwndSegs)
	if step < 1 {
		step = 1
	}
	need := uint32(step)
	for cu.cnt >= need {
		cu.cnt -= need
		c.setCwnd(c.snd.cwnd + c.mss)
	}
}

// lossSsthresh applies the multiplicative decrease and records W_max,
// with fast convergence (RFC 8312 §4.6): a loss below the previous W_max
// means capacity shrank, so the anchor is pulled down further. It reads
// cwnd, so it runs before the window moves.
func (cu *cubic) lossSsthresh(c *Conn) uint32 {
	cwndSegs := float64(c.snd.cwnd) / float64(c.mss)
	if cwndSegs < cu.wmax {
		cu.wmax = cwndSegs * (1 + cubicBeta) / 2
	} else {
		cu.wmax = cwndSegs
	}
	cu.epoch = 0
	return max(uint32(float64(c.snd.cwnd)*cubicBeta), 2*c.mss)
}

func (cu *cubic) OnEnterRecovery(c *Conn) {
	cu.enter(c, cu.lossSsthresh(c))
	cu.cnt = 0
}

func (cu *cubic) OnExitRecovery(c *Conn) {
	cu.renoWindow.OnExitRecovery(c)
	cu.cnt, cu.epoch = 0, 0
}

func (cu *cubic) OnRTO(c *Conn) {
	cu.collapse(c, cu.lossSsthresh(c))
	cu.cnt, cu.epoch = 0, 0
}

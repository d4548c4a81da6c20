// NewReno (RFC 6582) congestion control with RFC 3465 appropriate byte
// counting. The recovery state machine itself — partial-ACK retransmit, the
// recovery point — lives in the connection; this type supplies the growth
// and reduction policy, and renoWindow the inflation and deflation.
package tcp

import "plexus/internal/sim"

type newReno struct{ renoWindow }

func newNewReno() CongestionControl { return &newReno{} }

func (*newReno) Name() string                       { return "newreno" }
func (*newReno) OnRTTSample(*Conn, sim.Time)        {}
func (*newReno) PacingDelay(*Conn, uint32) sim.Time { return 0 }

// OnAck grows cwnd from bytes acknowledged (RFC 3465): slow start below
// ssthresh with L=2·SMSS, then one MSS per cwnd's worth of acked bytes in
// congestion avoidance. Credit carries across the ssthresh crossing, so a
// stretch ACK neither overshoots ssthresh nor over-credits avoidance.
func (r *newReno) OnAck(c *Conn, acked uint32) {
	r.acc += acked
	slowStartGrow(c, &r.acc)
	if c.snd.cwnd >= c.snd.ssthresh {
		for r.acc >= c.snd.cwnd {
			r.acc -= c.snd.cwnd
			c.setCwnd(c.snd.cwnd + c.mss)
		}
	}
}

// renoSsthresh is RFC 5681's ssthresh after loss: max(FlightSize/2, 2·SMSS).
func renoSsthresh(c *Conn) uint32 { return max(c.flightSize()/2, 2*c.mss) }

func (r *newReno) OnEnterRecovery(c *Conn) { r.enter(c, renoSsthresh(c)) }
func (r *newReno) OnRTO(c *Conn)           { r.collapse(c, renoSsthresh(c)) }

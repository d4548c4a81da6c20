// The congestion-control plane. The connection owns the loss *detection*
// machinery — dup-ACK counting, the SACK scoreboard, NewReno's recovery
// point and retransmissions (RFC 6582), the RTO — and calls a
// CongestionControl instance, chosen per host by name from a closed set, at
// each event that moves the window. The algorithm is the only writer of
// cwnd and ssthresh: NewReno and CUBIC share RFC 6582's inflate/deflate
// arithmetic (renoWindow); BBR computes its window from a model of the path
// and ignores the recovery events.
package tcp

import (
	"sort"

	"plexus/internal/sim"
)

// RecoveryState is the sender's loss-recovery phase, orthogonal to the RFC
// 793 connection state and exported for the audit and telemetry planes.
type RecoveryState uint8

const (
	// RecoveryOpen is normal operation: no loss suspected.
	RecoveryOpen RecoveryState = iota
	// RecoveryFast is NewReno/SACK fast recovery (RFC 6582): entered on the
	// third duplicate ACK, left when snd.recover is cumulatively acked.
	RecoveryFast
	// RecoveryLoss is RTO-driven recovery: the window collapsed and the
	// sender is re-filling the pipe under slow start.
	RecoveryLoss
)

var recoveryNames = [...]string{"OPEN", "FAST-RECOVERY", "LOSS"}

func (r RecoveryState) String() string {
	if int(r) < len(recoveryNames) {
		return recoveryNames[r]
	}
	return "RECOVERY(?)"
}

// initialSsthresh is every algorithm's ssthresh before the first loss.
const initialSsthresh = 65535

// maxCwnd caps congestion-window growth: 16 MB is beyond any
// bandwidth-delay product the simulator models and keeps every cwnd
// computation far from uint32 wraparound.
const maxCwnd = 1 << 24

// CongestionControl is one congestion-control algorithm bound to one
// connection. Implementations are per-connection (they may hold state) and
// must not allocate on the OnAck path — the zero-alloc pin covers it.
type CongestionControl interface {
	// Name is the name the algorithm was selected by.
	Name() string
	// Init sets the initial cwnd and ssthresh, before any segment flows;
	// the connection's MSS may still be renegotiated by the handshake.
	Init(c *Conn)
	// OnAck credits cwnd for acked bytes of new data (called outside fast
	// recovery; during RTO recovery it regrows the collapsed window).
	OnAck(c *Conn, acked uint32)
	// OnEnterRecovery (the third duplicate ACK), OnDupAck (each later one),
	// OnPartialAck (new data acked short of the recovery point) and
	// OnExitRecovery (the recovery point acked) bracket fast recovery.
	OnEnterRecovery(c *Conn)
	OnDupAck(c *Conn)
	OnPartialAck(c *Conn, acked uint32)
	OnExitRecovery(c *Conn)
	// OnRTO collapses the window on a retransmission timeout.
	OnRTO(c *Conn)
	// OnRTTSample observes each valid (Karn-filtered) RTT measurement.
	OnRTTSample(c *Conn, rtt sim.Time)
	// PacingDelay returns the gap to impose after transmitting bytes, or 0
	// for unpaced (ACK-clocked) operation. Paced sends ride the simulator's
	// timer wheel.
	PacingDelay(c *Conn, bytes uint32) sim.Time
}

// DefaultCC is the algorithm used when none is configured.
const DefaultCC = "newreno"

// ccAlgorithms is the closed set of algorithms a host can select by name:
// cwnd, ssthresh and setCwnd are unexported, so only an algorithm in this
// package can move the window.
var ccAlgorithms = map[string]func() CongestionControl{
	"newreno": newNewReno,
	"cubic":   newCubic,
	"bbr":     newBBR,
}

// CCNames lists the algorithms, sorted.
func CCNames() []string {
	names := make([]string, 0, len(ccAlgorithms))
	for n := range ccAlgorithms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// newCC instantiates name, falling back to NewReno for "" or unknown names
// (a misspelled algorithm must degrade to standard behaviour, not crash a
// simulation mid-sweep).
func newCC(name string) CongestionControl {
	if f, ok := ccAlgorithms[name]; ok {
		return f()
	}
	return ccAlgorithms[DefaultCC]()
}

// setCwnd applies a congestion-window value under the global clamps: never
// below one MSS (the connection must always be able to probe), never above
// maxCwnd (uint32 arithmetic stays safe).
func (c *Conn) setCwnd(w uint32) {
	if w > maxCwnd {
		w = maxCwnd
	}
	if w < c.mss {
		w = c.mss
	}
	c.snd.cwnd = w
}

// flightSize is RFC 5681's FlightSize: sequence space sent but not yet
// cumulatively acknowledged.
func (c *Conn) flightSize() uint32 { return c.snd.nxt - c.snd.una }

// slowStartGrow implements RFC 3465 appropriate byte counting below
// ssthresh with L=2·SMSS: per ACK, cwnd grows by the bytes actually
// acknowledged, capped at 2·MSS, and clamped exactly at the ssthresh
// crossing so a single ACK cannot overshoot into what should be congestion
// avoidance. Credit truncated by the crossing clamp is left in *acc for the
// caller's avoidance phase; credit beyond the L cap is discarded — banking
// it would let a stretch ACK buy the whole burst's worth of exponential
// growth at once, which is exactly what the cap exists to prevent.
func slowStartGrow(c *Conn, acc *uint32) {
	if c.snd.cwnd >= c.snd.ssthresh || *acc == 0 {
		return
	}
	inc := *acc
	if l := 2 * c.mss; inc > l {
		inc = l
	}
	if room := c.snd.ssthresh - c.snd.cwnd; inc > room {
		inc = room
	}
	c.setCwnd(c.snd.cwnd + inc)
	*acc -= inc
	if c.snd.cwnd < c.snd.ssthresh {
		*acc = 0
	}
}

// renoWindow is the window arithmetic NewReno and CUBIC share: the initial
// two segments and RFC 6582's fast-recovery inflation and deflation. They
// differ only in the ssthresh a loss sets.
type renoWindow struct {
	// acc is the RFC 3465 byte-counting accumulator: bytes acked but not yet
	// converted into cwnd growth. Every window reduction empties it.
	acc uint32
}

func (*renoWindow) Init(c *Conn) {
	c.snd.cwnd = 2 * c.mss // a lone segment would wait out the peer's delayed ACK
	c.snd.ssthresh = initialSsthresh
}

// enter is RFC 6582 step 2: cwnd is ssthresh inflated by the three segments
// the duplicate ACKs proved have left the network.
func (w *renoWindow) enter(c *Conn, ssthresh uint32) {
	w.acc = 0
	c.snd.ssthresh = ssthresh
	c.setCwnd(ssthresh + dupThresh*c.mss)
}

// OnDupAck is RFC 6582 step 3: one more segment left the network.
func (*renoWindow) OnDupAck(c *Conn) { c.setCwnd(c.snd.cwnd + c.mss) }

// OnPartialAck is RFC 6582 step 5: deflate by the bytes acked, and add one
// MSS back when a full segment left the network.
func (*renoWindow) OnPartialAck(c *Conn, acked uint32) {
	w := c.mss
	if acked < c.snd.cwnd {
		w = c.snd.cwnd - acked
	}
	if acked >= c.mss {
		w += c.mss
	}
	c.setCwnd(w)
}

// OnExitRecovery deflates to min(ssthresh, flight+MSS): RFC 6582 step 5's
// conservative option, which avoids a burst after the inflation.
func (w *renoWindow) OnExitRecovery(c *Conn) {
	c.setCwnd(min(c.snd.ssthresh, c.flightSize()+c.mss))
	w.acc = 0
}

// collapse is RFC 5681's timeout response.
func (w *renoWindow) collapse(c *Conn, ssthresh uint32) {
	c.snd.ssthresh = ssthresh
	c.setCwnd(c.mss)
	w.acc = 0
}

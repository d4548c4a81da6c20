package fault

import (
	"math/rand"

	"plexus/internal/sim"
	"plexus/internal/view"
)

// DropModel decides, frame by frame, whether a binary fault fires. The same
// interface serves loss (Injector.Lose) and duplication (Injector.Duplicate):
// a model answers "does this frame suffer the fault?", the injector decides
// what the fault does. Models draw all randomness from the PRNG they are
// handed — the simulation's seeded generator — so a given seed replays the
// exact same fault sequence.
type DropModel interface {
	Drop(rng *rand.Rand, wire []byte) bool
}

// CorruptModel may damage a frame's bytes in place, reporting whether it did.
type CorruptModel interface {
	Corrupt(rng *rand.Rand, wire []byte) bool
}

// DelayModel returns extra propagation delay per frame; unequal delays
// reorder deliveries.
type DelayModel interface {
	Delay(rng *rand.Rand, wire []byte) sim.Time
}

// ---------------------------------------------------------------------------
// Loss / duplication models.

// Bernoulli fires independently on each frame with probability P — the
// classic random-loss channel.
type Bernoulli struct {
	P float64
}

// Drop implements DropModel.
func (b Bernoulli) Drop(rng *rand.Rand, wire []byte) bool {
	return b.P > 0 && rng.Float64() < b.P
}

// GilbertElliott is the two-state Markov burst-loss channel: a Good and a Bad
// state with per-frame transition probabilities and a loss probability in
// each state. It reproduces the clustered losses of real radio and congested
// paths that independent (Bernoulli) loss cannot. The zero value never
// fires; use Burst for the common parameterization.
type GilbertElliott struct {
	// PGoodToBad / PBadToGood are per-frame transition probabilities.
	PGoodToBad float64
	PBadToGood float64
	// LossGood / LossBad are the loss probabilities within each state
	// (classic Gilbert: LossGood = 0, LossBad = 1).
	LossGood float64
	LossBad  float64

	bad bool
}

// Drop implements DropModel, advancing the channel state one frame.
func (g *GilbertElliott) Drop(rng *rand.Rand, wire []byte) bool {
	if g.bad {
		if rng.Float64() < g.PBadToGood {
			g.bad = false
		}
	} else if g.PGoodToBad > 0 && rng.Float64() < g.PGoodToBad {
		g.bad = true
	}
	p := g.LossGood
	if g.bad {
		p = g.LossBad
	}
	return p > 0 && rng.Float64() < p
}

// Burst returns a Gilbert–Elliott channel tuned to a target mean loss rate
// and mean burst length (frames lost per bad-state visit): the bad state
// always loses, the good state never does, and the stationary bad-state
// probability equals rate.
func Burst(rate, meanBurstLen float64) *GilbertElliott {
	if rate <= 0 {
		return &GilbertElliott{}
	}
	if meanBurstLen < 1 {
		meanBurstLen = 1
	}
	pBG := 1 / meanBurstLen
	return &GilbertElliott{
		PGoodToBad: rate * pBG / (1 - rate),
		PBadToGood: pBG,
		LossBad:    1,
	}
}

// EveryNth fires deterministically on frames N, 2N, 3N, … — the model behind
// the repository's historic count%N drop closures, kept because tests that
// assert exact retransmit counts need loss that is reproducible by
// inspection, not just by seed.
type EveryNth struct {
	N     int
	count int
}

// Drop implements DropModel.
func (e *EveryNth) Drop(rng *rand.Rand, wire []byte) bool {
	if e.N <= 0 {
		return false
	}
	e.count++
	return e.count%e.N == 0
}

// NthOnly fires on exactly the Kth frame the model sees and never again —
// surgical single-frame faults for recovery tests.
type NthOnly struct {
	K     int
	count int
}

// Drop implements DropModel.
func (n *NthOnly) Drop(rng *rand.Rand, wire []byte) bool {
	n.count++
	return n.count == n.K
}

// MinSize gates an inner model to frames of at least N wire bytes — the
// standard way to fault data segments while sparing ACKs and control
// traffic.
type MinSize struct {
	N int
	M DropModel
}

// Drop implements DropModel.
func (s MinSize) Drop(rng *rand.Rand, wire []byte) bool {
	return len(wire) >= s.N && s.M.Drop(rng, wire)
}

// Limit caps an inner model at Max firings.
type Limit struct {
	Max   int
	M     DropModel
	fired int
}

// Drop implements DropModel.
func (l *Limit) Drop(rng *rand.Rand, wire []byte) bool {
	if l.fired >= l.Max {
		return false
	}
	if !l.M.Drop(rng, wire) {
		return false
	}
	l.fired++
	return true
}

// Fired reports how many times the capped model has fired.
func (l *Limit) Fired() int { return l.fired }

// ---------------------------------------------------------------------------
// Corruption models.

// BitFlip flips one random bit past the Ethernet header in each frame it
// fires on (probability P per frame, frames of at least MinSize bytes) —
// the line-noise model that exercises every checksum in the stack.
type BitFlip struct {
	P       float64
	MinSize int
}

// Corrupt implements CorruptModel.
func (b BitFlip) Corrupt(rng *rand.Rand, wire []byte) bool {
	if len(wire) <= view.EthernetHdrLen || len(wire) < b.MinSize {
		return false
	}
	if b.P <= 0 || rng.Float64() >= b.P {
		return false
	}
	bit := rng.Intn((len(wire) - view.EthernetHdrLen) * 8)
	wire[view.EthernetHdrLen+bit/8] ^= 1 << (bit % 8)
	return true
}

// FlipByte inverts the byte at Offset in frames of at least MinSize bytes, at
// most Max times (Max <= 0 = unlimited) — the deterministic corruption model
// checksum-validation tests use to damage exactly one transmission.
type FlipByte struct {
	Offset  int
	MinSize int
	Max     int
	done    int
}

// Corrupt implements CorruptModel.
func (f *FlipByte) Corrupt(rng *rand.Rand, wire []byte) bool {
	if f.Max > 0 && f.done >= f.Max {
		return false
	}
	if len(wire) < f.MinSize || f.Offset >= len(wire) {
		return false
	}
	wire[f.Offset] ^= 0xff
	f.done++
	return true
}

// ---------------------------------------------------------------------------
// Delay (reordering) models.

// Jitter holds back frames of at least MinSize bytes, with probability P, by
// a uniform random delay in (0, Max] — enough spread and later frames
// overtake earlier ones.
type Jitter struct {
	P       float64
	Max     sim.Time
	MinSize int
}

// Delay implements DelayModel.
func (j Jitter) Delay(rng *rand.Rand, wire []byte) sim.Time {
	if len(wire) < j.MinSize || j.Max <= 0 || j.P <= 0 || rng.Float64() >= j.P {
		return 0
	}
	return 1 + sim.Time(rng.Int63n(int64(j.Max)))
}

// PeriodicDelay holds back every Nth frame of at least MinSize bytes by a
// fixed Hold — the deterministic reordering model behind the historic
// count%N delay closures.
type PeriodicDelay struct {
	N       int
	Hold    sim.Time
	MinSize int
	count   int
}

// Delay implements DelayModel.
func (p *PeriodicDelay) Delay(rng *rand.Rand, wire []byte) sim.Time {
	if p.N <= 0 || len(wire) < p.MinSize {
		return 0
	}
	p.count++
	if p.count%p.N == 0 {
		return p.Hold
	}
	return 0
}

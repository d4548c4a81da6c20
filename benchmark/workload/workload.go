// Package workload holds the benchmark's six workloads. Each one builds a
// topology through the simulator's public constructors, drives a fixed amount
// of simulated work, verifies what it moved, and returns host-clock costs,
// simulated-clock results, a digest of the simulated outputs and the
// per-layer counters read through the layers' public accessors.
package workload

import (
	"bytes"
	"fmt"
	"sort"

	"plexus/benchmark/trace"
	"plexus/internal/sim"
)

// Params selects one repetition of a workload.
type Params struct {
	// Seed feeds the simulator's PRNG, the payload pattern, the clients'
	// send-slot assignment and the loss draws.
	Seed int64
	// Size scales the simulated work; 1 is the benchmark's size and the
	// smoke test uses a small fraction.
	Size float64
	// Sink, when set, is installed on every simulator (the traced
	// repetition). Audit checkers are attached in that repetition too.
	Sink *trace.Sink
}

// SimMetrics are the simulated-clock results: deterministic for a seed.
type SimMetrics struct {
	LatencyP50us float64
	LatencyP99us float64
	Samples      int     // latency samples behind the percentiles
	GoodputMbps  float64 // verified payload bits per simulated second
	CPUusPerOp   float64 // simulated server-CPU µs per op
}

// Result is one repetition's outcome.
type Result struct {
	// Attempted ops and how many of them failed the oracle.
	Attempted, Failed uint64
	// Failures holds the first few failure descriptions.
	Failures []string
	// Setup is the host cost from nothing to a primed topology with
	// listeners up (and handshakes done where the workload measures an
	// established stream).
	Setup Setup
	// Host is the cost of the measured window.
	Host HostDelta
	Sim  SimMetrics
	// Digest hashes the simulated outputs: verified payload hash, op and
	// failure counts, every latency sample, the fired-event count and the
	// per-layer counts.
	Digest uint64
	// Counters are the per-layer counts and simulated-time sums, by
	// metric name.
	Counters map[string]float64
	// HostCounters are per-layer numbers measured on the host clock (the
	// sharded engine's barrier wait); they are not part of the digest.
	HostCounters map[string]float64
	// Servers names the hosts whose CPU is the "server CPU"; Gateway the
	// forwarding host's CPU, if there is one.
	Servers []string
	Gateway string
}

// Ops is the number of ops that passed the oracle.
func (r *Result) Ops() uint64 { return r.Attempted - r.Failed }

// Workload is one entry of the benchmark.
type Workload struct {
	Name string
	// Op names the application-level unit; Loop states open or closed and
	// the rate or client count.
	Op, Loop string
	Run      func(p Params) (*Result, error)
}

// All lists the workloads in reporting order.
func All() []Workload {
	return []Workload{
		{Name: "udp-echo-1k", Op: "32 B UDP echo round trip, reply verified",
			Loop: "open loop, 990 local clients at 1 echo/50 ms + 5 cross-segment clients at 1 echo/100 ms", Run: runUDPEcho},
		{Name: "tcp-bulk", Op: "64 KiB of the seeded stream delivered in order",
			Loop: "closed loop by TCP window, 1 connection, writer keeps 1 MiB buffered", Run: runTCPBulk},
		{Name: "tcp-lossy", Op: "64 KiB of a flow's seeded stream delivered in order",
			Loop: "closed loop by congestion window, 2 backlogged flows (NewReno vs CUBIC)", Run: runTCPLossy},
		{Name: "http-churn", Op: "HTTP/1.0 GET of a 1 KiB body: connect, request, response, close",
			Loop: "closed loop, 4 clients", Run: runHTTPChurn},
		{Name: "fabric-lb", Op: "64 B UDP echo to the VIP through ACL+LB+NAT+ECMP, reply verified",
			Loop: "open loop, 16 clients, paced", Run: runFabricLB},
		{Name: "paper-suite", Op: "one paper check (numeric anchor or ordering from EXPERIMENTS.md)",
			Loop: "closed loop, the paper's rigs run back to back", Run: runPaperSuite},
	}
}

// ByName finds a workload.
func ByName(name string) (Workload, bool) {
	for _, w := range All() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// recorder accumulates a repetition's ops: exact latency samples in a slice
// sized before the measured window, the verified-output hash, and failures.
type recorder struct {
	lat      []sim.Time
	ok       uint64
	failed   uint64
	bytes    uint64 // verified payload bytes
	hash     uint64
	failures []string
}

func newRecorder(capOps int) *recorder {
	return &recorder{lat: make([]sim.Time, 0, capOps), hash: fnvOffset}
}

// done records one verified op.
func (r *recorder) done(lat sim.Time, payloadBytes int, outHash uint64) {
	r.ok++
	r.bytes += uint64(payloadBytes)
	r.lat = append(r.lat, lat)
	r.hash = mix(r.hash, outHash)
}

// fail records one failed op.
func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mix folds one 64-bit value into an FNV-1a style running hash.
func mix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v >> (8 * i) & 0xff
		h *= fnvPrime
	}
	return h
}

// hashBytes is FNV-1a over b.
func hashBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// splitmix is the seeded pattern generator behind every payload: the value
// at (seed, stream, index) is a pure function, so a receiver can check any
// byte without the sender holding the stream.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// fillPattern writes the stream's bytes [0, len(b)) into b, eight bytes per
// generator step.
func fillPattern(b []byte, seed int64, stream uint64) {
	key := splitmix(uint64(seed)) ^ splitmix(stream+0x51ed)
	for i := 0; i < len(b); i += 8 {
		w := splitmix(key + uint64(i>>3))
		for j := 0; j < 8 && i+j < len(b); j++ {
			b[i+j] = byte(w >> (8 * j))
		}
	}
}

// streamPattern is a bulk stream's content: one seeded block repeated end to
// end. The block length is odd and longer than any send buffer, so a
// receiver comparing against it catches loss, duplication and reordering at
// any offset, at memcmp speed instead of hashing every byte.
type streamPattern struct{ block []byte }

func newStreamPattern(seed int64, stream uint64) *streamPattern {
	b := make([]byte, 1<<20+13)
	fillPattern(b, seed, stream)
	return &streamPattern{block: b}
}

// next returns up to n bytes of the stream starting at off, as a slice of
// the block (shorter at the block's end; callers loop).
func (sp *streamPattern) next(off uint64, n int) []byte {
	at := int(off % uint64(len(sp.block)))
	if at+n > len(sp.block) {
		n = len(sp.block) - at
	}
	return sp.block[at : at+n]
}

// matches reports whether data equals the stream's bytes at off.
func (sp *streamPattern) matches(off uint64, data []byte) bool {
	for len(data) > 0 {
		want := sp.next(off, len(data))
		if !bytes.Equal(data[:len(want)], want) {
			return false
		}
		data = data[len(want):]
		off += uint64(len(want))
	}
	return true
}

// percentiles returns the exact p50 and p99 of the samples (nearest rank).
func percentiles(lat []sim.Time) (p50, p99 sim.Time) {
	if len(lat) == 0 {
		return 0, 0
	}
	s := append([]sim.Time(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := func(q float64) sim.Time {
		i := int(q*float64(len(s))+0.999999) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	return rank(0.50), rank(0.99)
}

// jain is Jain's fairness index over the flows' rates.
func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// scaled multiplies a simulated duration by the size factor, keeping at
// least min.
func scaled(d sim.Time, size float64, min sim.Time) sim.Time {
	out := sim.Time(float64(d) * size)
	if out < min {
		out = min
	}
	return out
}

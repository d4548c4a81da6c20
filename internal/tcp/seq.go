package tcp

// Sequence-space arithmetic (RFC 793 §3.3): comparisons are modulo 2^32,
// meaningful for values within half the space of each other.

// seqLT reports a < b in sequence space.
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// seqLE reports a <= b in sequence space.
func seqLE(a, b uint32) bool { return int32(a-b) <= 0 }

// seqGT reports a > b in sequence space.
func seqGT(a, b uint32) bool { return int32(a-b) > 0 }

// seqGE reports a >= b in sequence space.
func seqGE(a, b uint32) bool { return int32(a-b) >= 0 }

package stats

import (
	"fmt"
	"sort"
	"strings"

	"plexus/internal/sim"
)

// HopRecord is one step of a packet's lifecycle: where a stamped packet was
// at a given simulated time and what the layer did with it.
type HopRecord struct {
	Span   uint64
	At     sim.Time
	Host   string
	Layer  string
	Action string
	Bytes  int
}

// SampleRecord is one attributed CPU charge.
type SampleRecord struct {
	Host  string
	Kind  sim.ProfKind
	Owner string
	Prio  sim.Priority
	Start sim.Time
	Dur   sim.Time
}

// aggKey identifies one row of the folded profile.
type aggKey struct {
	Host  string
	Kind  sim.ProfKind
	Owner string
}

// aggVal accumulates charge time for one profile row.
type aggVal struct {
	Total sim.Time
	Count uint64
}

// Config sizes a Recorder. The zero value selects the defaults.
type Config struct {
	// HopCap bounds the hop ring (default 64K records, ~4MB). When it
	// fills, the oldest records are overwritten — flight-recorder
	// semantics: the tail of the run is always retained.
	HopCap int
	// SampleCap bounds the sample ring (default 64K records).
	SampleCap int
}

// Recorder is the canonical sim.Metrics sink: preallocated rings for raw
// hop/sample records and a folded-profile aggregator. After construction (and a warm-up that touches every
// host/kind/owner triple) the record path allocates nothing, so the
// AllocsPerRun=0 invariant holds with metrics enabled.
type Recorder struct {
	hops     []HopRecord
	hopNext  int
	hopTotal uint64

	samples     []SampleRecord
	sampleNext  int
	sampleTotal uint64

	agg      map[aggKey]*aggVal
	aggOrder []aggKey // insertion order; dumps sort, so this is just the key list
}

// NewRecorder returns a Recorder with all storage preallocated.
func NewRecorder(cfg Config) *Recorder {
	if cfg.HopCap <= 0 {
		cfg.HopCap = 1 << 16
	}
	if cfg.SampleCap <= 0 {
		cfg.SampleCap = 1 << 16
	}
	return &Recorder{
		hops:     make([]HopRecord, cfg.HopCap),
		samples:  make([]SampleRecord, cfg.SampleCap),
		agg:      make(map[aggKey]*aggVal, 256),
		aggOrder: make([]aggKey, 0, 256),
	}
}

// Hop implements sim.Metrics.
func (r *Recorder) Hop(span uint64, at sim.Time, host, layer, action string, bytes int) {
	r.hops[r.hopNext] = HopRecord{Span: span, At: at, Host: host, Layer: layer, Action: action, Bytes: bytes}
	r.hopNext++
	if r.hopNext == len(r.hops) {
		r.hopNext = 0
	}
	r.hopTotal++
}

// Sample implements sim.Metrics.
func (r *Recorder) Sample(host string, kind sim.ProfKind, owner string, prio sim.Priority, start, dur sim.Time) {
	k := aggKey{Host: host, Kind: kind, Owner: owner}
	a := r.agg[k]
	if a == nil {
		a = &aggVal{}
		r.agg[k] = a
		r.aggOrder = append(r.aggOrder, k)
	}
	a.Total += dur
	a.Count++
	r.samples[r.sampleNext] = SampleRecord{Host: host, Kind: kind, Owner: owner, Prio: prio, Start: start, Dur: dur}
	r.sampleNext++
	if r.sampleNext == len(r.samples) {
		r.sampleNext = 0
	}
	r.sampleTotal++
}

// QueueDepth implements sim.Metrics; the recorder keeps no run-queue series.
func (r *Recorder) QueueDepth(host string, depth int) {}

// HopsRecorded returns the total number of hops ever recorded (including
// ones the ring has since overwritten).
func (r *Recorder) HopsRecorded() uint64 { return r.hopTotal }

// SamplesRecorded returns the total number of samples ever recorded.
func (r *Recorder) SamplesRecorded() uint64 { return r.sampleTotal }

// Hops returns the retained hop records in recording order (oldest first).
// It allocates; call it at dump time, not on the hot path.
func (r *Recorder) Hops() []HopRecord {
	return unwrap(r.hops, r.hopNext, r.hopTotal)
}

// Samples returns the retained sample records in recording order.
func (r *Recorder) Samples() []SampleRecord {
	return unwrap(r.samples, r.sampleNext, r.sampleTotal)
}

// unwrap linearizes a ring: if it never filled, the first total entries are
// valid; otherwise next is the oldest retained slot.
func unwrap[T any](ring []T, next int, total uint64) []T {
	if total <= uint64(len(ring)) {
		out := make([]T, total)
		copy(out, ring[:total])
		return out
	}
	out := make([]T, 0, len(ring))
	out = append(out, ring[next:]...)
	out = append(out, ring[:next]...)
	return out
}

// SpanHops returns the retained hops of one span in time order.
func (r *Recorder) SpanHops(span uint64) []HopRecord {
	var out []HopRecord
	for _, h := range r.Hops() {
		if h.Span == span {
			out = append(out, h)
		}
	}
	return out
}

// Spans lists the distinct span IDs among retained hops, ascending.
func (r *Recorder) Spans() []uint64 {
	seen := make(map[uint64]bool)
	var out []uint64
	for _, h := range r.Hops() {
		if !seen[h.Span] {
			seen[h.Span] = true
			out = append(out, h.Span)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ProfileRow is one line of the folded profile: total attributed CPU time
// for a (host, kind, owner) triple.
type ProfileRow struct {
	Host  string
	Kind  sim.ProfKind
	Owner string
	Total sim.Time
	Count uint64
}

// Profile returns the aggregated profile sorted by host, then kind, then
// descending total — a deterministic, diffable order.
func (r *Recorder) Profile() []ProfileRow {
	rows := make([]ProfileRow, 0, len(r.aggOrder))
	for _, k := range r.aggOrder {
		a := r.agg[k]
		rows = append(rows, ProfileRow{Host: k.Host, Kind: k.Kind, Owner: k.Owner, Total: a.Total, Count: a.Count})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Host != rows[j].Host {
			return rows[i].Host < rows[j].Host
		}
		if rows[i].Kind != rows[j].Kind {
			return rows[i].Kind < rows[j].Kind
		}
		if rows[i].Total != rows[j].Total {
			return rows[i].Total > rows[j].Total
		}
		return rows[i].Owner < rows[j].Owner
	})
	return rows
}

// Folded writes the profile in folded-stacks format — "host;kind;owner N"
// with N in nanoseconds — the input format of flame-graph tooling.
func (r *Recorder) Folded() string {
	var b strings.Builder
	for _, row := range r.Profile() {
		fmt.Fprintf(&b, "%s;%s;%s %d\n", row.Host, row.Kind, row.Owner, int64(row.Total))
	}
	return b.String()
}

var _ sim.Metrics = (*Recorder)(nil)

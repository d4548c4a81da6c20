// Package telemetry is the deterministic time-series plane: a simulated-time
// sampling engine that fires named probes on a fixed interval and appends
// their observations into preallocated overwrite-oldest series rings.
//
// The design follows the flight recorder (internal/stats) discipline:
//
//   - Everything is preallocated at attach time. A tick — fire every probe,
//     push every point, evaluate every watchdog rule, reschedule — allocates
//     nothing, so the zero-alloc steady-state invariant holds with sampling
//     enabled (pinned by TestUDPEchoSteadyStateAllocsWithTelemetry).
//   - Timestamps are simulated time, probes run in registration order, and
//     registration order is fixed by topology construction, so two runs of
//     the same scenario produce byte-identical exports at any -parallel or
//     -shards setting. Wall-clock diagnostics (sim.Engine barrier waits)
//     deliberately live outside this plane.
//   - Series rings overwrite oldest: a long soak keeps the most recent
//     window (plus cumulative Total/Last), bounding memory like the hop and
//     sample rings.
package telemetry

import (
	"plexus/internal/sim"
)

// Point is one observation: a simulated timestamp and an integer value.
// Values are int64 raw units (bytes, segments, nanoseconds, queue slots);
// rates and percentages are derived at export/render time so the recorded
// stream stays exact and mergeable.
type Point struct {
	At  sim.Time
	Val int64
}

// Series is one named time series backed by an overwrite-oldest ring.
type Series struct {
	name   string
	host   string
	labels string // pre-rendered "k=v,k=v" extras, may be ""
	key    string // full identity: name{host=h,labels}

	points []Point
	next   int
	total  uint64

	lastVal int64
	seen    bool
}

// Name returns the metric name (e.g. "tcp.cwnd").
func (se *Series) Name() string { return se.name }

// Host returns the host label.
func (se *Series) Host() string { return se.host }

// Labels returns the pre-rendered extra labels ("" if none).
func (se *Series) Labels() string { return se.labels }

// Total reports how many points were ever pushed (>= retained).
func (se *Series) Total() uint64 { return se.total }

func (se *Series) push(at sim.Time, v int64) {
	se.points[se.next] = Point{At: at, Val: v}
	se.next++
	if se.next == len(se.points) {
		se.next = 0
	}
	se.total++
	se.lastVal, se.seen = v, true
}

// Points appends the retained window, oldest first, to buf and returns it.
func (se *Series) Points(buf []Point) []Point {
	n := len(se.points)
	if se.total < uint64(n) {
		return append(buf, se.points[:se.total]...)
	}
	buf = append(buf, se.points[se.next:]...)
	return append(buf, se.points[:se.next]...)
}

// Sample is the context handed to every probe on each tick.
type Sample struct {
	at sim.Time
}

// At returns the tick's simulated timestamp.
func (s *Sample) At() sim.Time { return s.at }

// Observe appends v to se at the tick's timestamp.
func (s *Sample) Observe(se *Series, v int64) { se.push(s.at, v) }

// probe is one registered sampling callback.
type probe struct {
	name string
	fn   func(*Sample)
}

// Options configures an Engine.
type Options struct {
	// Interval is the sampling period; 0 means 1ms.
	Interval sim.Time
	// SeriesCap is the per-series ring capacity in points; 0 means 2048.
	SeriesCap int
	// AlarmCap bounds retained watchdog alarms; 0 means 64.
	AlarmCap int
}

// DefaultInterval is the sampling period when Options.Interval is zero.
const DefaultInterval = sim.Millisecond

// Engine owns the probe registry, every series ring, and the watchdog rules
// for one simulator (one shard in a sharded topology).
type Engine struct {
	sim       *sim.Sim
	interval  sim.Time
	seriesCap int

	probes []probe
	series []*Series
	byKey  map[string]*Series

	rules      []*Rule
	alarms     []Alarm
	alarmTotal uint64

	sample  Sample
	running bool
	ticks   uint64
}

// New creates an engine bound to s. Nothing fires until Start.
func New(s *sim.Sim, opts Options) *Engine {
	if opts.Interval <= 0 {
		opts.Interval = DefaultInterval
	}
	if opts.SeriesCap <= 0 {
		opts.SeriesCap = 2048
	}
	if opts.AlarmCap <= 0 {
		opts.AlarmCap = 64
	}
	return &Engine{
		sim:       s,
		interval:  opts.Interval,
		seriesCap: opts.SeriesCap,
		byKey:     make(map[string]*Series),
		alarms:    make([]Alarm, 0, opts.AlarmCap),
	}
}

// Interval returns the sampling period.
func (e *Engine) Interval() sim.Time { return e.interval }

// Ticks reports how many sampling rounds have fired.
func (e *Engine) Ticks() uint64 { return e.ticks }

// Register adds a named probe. Probes fire in registration order on every
// tick; name is diagnostic only. Registration is a setup-time operation.
func (e *Engine) Register(name string, fn func(*Sample)) {
	e.probes = append(e.probes, probe{name: name, fn: fn})
}

// Series returns (creating if needed) the series for name on host with the
// given pre-rendered extra labels ("k=v,k=v" or ""). Creation allocates;
// callers cache the handle at attach time so the sampling path does not.
func (e *Engine) Series(name, host, labels string) *Series {
	key := name + "{host=" + host
	if labels != "" {
		key += "," + labels
	}
	key += "}"
	if se := e.byKey[key]; se != nil {
		return se
	}
	se := &Series{
		name:   name,
		host:   host,
		labels: labels,
		key:    key,
		points: make([]Point, e.seriesCap),
	}
	e.series = append(e.series, se)
	e.byKey[key] = se
	return se
}

// AllSeries returns every series in creation order.
func (e *Engine) AllSeries() []*Series { return e.series }

// tickFn is the package-level callback AtArg schedules: with the engine as
// the pooled argument, periodic rescheduling never allocates a closure.
func tickFn(arg any) {
	e := arg.(*Engine)
	if !e.running {
		return
	}
	e.Tick()
	e.sim.AfterArg(e.interval, "telemetry.tick", tickFn, e)
}

// Start begins periodic sampling: the first tick fires one interval from
// now, then every interval after.
func (e *Engine) Start() {
	if e.running {
		return
	}
	e.running = true
	e.sim.AfterArg(e.interval, "telemetry.tick", tickFn, e)
}

// Stop halts periodic sampling after the currently scheduled tick lapses.
func (e *Engine) Stop() { e.running = false }

// Tick runs one sampling round at the current simulated time: every probe in
// registration order, then every watchdog rule. Steady state allocates
// nothing. Exposed so tests and post-run code can force a final sample.
func (e *Engine) Tick() {
	e.ticks++
	e.sample.at = e.sim.Now()
	for i := range e.probes {
		e.probes[i].fn(&e.sample)
	}
	e.evalRules(e.sample.at)
}

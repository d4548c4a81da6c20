// Package trace is the benchmark's own sim.Metrics sink: it turns the hooks
// the simulator already exposes (SetMetrics) into span records and per-layer
// sums without adding any code to the program under test.
//
// Every Hop becomes a record {packet span id, own id, cause = previous hop of
// the same packet, layer/action, simulated time, wall time}; the gap to the
// packet's next hop is charged to the layer that held it. Every Sample is
// summed per ProfKind (per host, so the server's share can be split out), and
// QueueDepth feeds a run-queue histogram. Records live in a preallocated ring
// and are written out only when the benchmark ends.
//
// A Sink is not safe for concurrent use: the benchmark runs every simulator,
// including sharded engines, on one goroutine.
package trace

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"time"

	"plexus/internal/sim"
)

// Layer indexes the per-layer sums. The names are the module names under
// internal/ ("wire" hops belong to netdev).
type Layer uint8

// Layers that emit hops.
const (
	LayerNetdev Layer = iota
	LayerEther
	LayerEvent
	LayerIP
	LayerUDP
	LayerTCP
	LayerSeqpkt
	LayerOther
	NumLayers
)

func layerOf(name string) Layer {
	switch name {
	case "wire":
		return LayerNetdev
	case "ether":
		return LayerEther
	case "event":
		return LayerEvent
	case "ip":
		return LayerIP
	case "udp":
		return LayerUDP
	case "tcp":
		return LayerTCP
	case "spp":
		return LayerSeqpkt
	}
	return LayerOther
}

// HopRecord is one retained hop.
type HopRecord struct {
	Span   uint64 // packet id, shared by every hop of the packet
	ID     uint64 // this hop, 1-based in recording order
	Cause  uint64 // previous hop of the same packet (0 = first hop)
	Sim    sim.Time
	Wall   int64 // ns since the sink was created
	Bytes  int
	Host   string
	Layer  string
	Action string
}

// SpanRecord is a benchmark-level span: the traced repetition (the root) and
// each probe batch under it.
type SpanRecord struct {
	ID, Parent uint64
	Name       string
	Start, End int64 // wall ns since the sink was created
}

type lastHop struct {
	id    uint64
	at    sim.Time
	layer Layer
	seen  uint8 // bitmask of layers this packet has touched
}

type hostAgg struct {
	server  bool
	prof    [sim.NumProfKinds]sim.Time
	samples [sim.NumProfKinds]uint64
}

// maxDepth bounds the exact run-queue histogram; deeper queues land in the
// last bucket.
const maxDepth = 4096

// Sink implements sim.Metrics.
type Sink struct {
	epoch time.Time

	ring  []HopRecord
	total uint64
	last  map[uint64]lastHop

	layerGap  [NumLayers]sim.Time
	layerPkts [NumLayers]uint64

	hosts    map[string]*hostAgg
	lastHost string
	lastAgg  *hostAgg
	// dispatchEvals counts ProfDispatch charges made by the event
	// dispatcher itself (guard evaluations and handler invocations), as
	// opposed to the personality's thread-spawn/softirq hand-offs.
	dispatchEvals uint64

	depth     [maxDepth + 1]uint64
	depthObs  uint64
	anyServer bool

	spans  []SpanRecord
	spanID uint64
}

// NewSink preallocates a sink retaining the last ringCap hops.
func NewSink(ringCap int) *Sink {
	return &Sink{
		epoch: time.Now(),
		ring:  make([]HopRecord, ringCap),
		last:  make(map[uint64]lastHop, 1<<12),
		hosts: make(map[string]*hostAgg, 64),
	}
}

// SampleRunQueueOf restricts the run-queue histogram to the named hosts (the
// servers); without it every host's queue is sampled.
func (s *Sink) SampleRunQueueOf(servers []string) {
	for _, h := range servers {
		s.host(h).server = true
		s.anyServer = true
	}
}

func (s *Sink) wall() int64 { return int64(time.Since(s.epoch)) }

// Hop implements sim.Metrics.
func (s *Sink) Hop(span uint64, at sim.Time, host, layer, action string, bytes int) {
	s.total++
	id := s.total
	l := layerOf(layer)
	prev, ok := s.last[span]
	if ok {
		if gap := at - prev.at; gap > 0 {
			s.layerGap[prev.layer] += gap
		}
	}
	if prev.seen&(1<<l) == 0 {
		s.layerPkts[l]++
	}
	s.ring[(id-1)%uint64(len(s.ring))] = HopRecord{
		Span: span, ID: id, Cause: prev.id, Sim: at, Wall: s.wall(),
		Bytes: bytes, Host: host, Layer: layer, Action: action,
	}
	// A packet's record ends where the stack consumes it or the wire loses
	// it; forgetting it there keeps the table at the in-flight population.
	if (l == LayerUDP && action == "deliver") || (l == LayerTCP && action == "recv") ||
		(l == LayerNetdev && action != "tx" && action != "rx") {
		delete(s.last, span)
		return
	}
	s.last[span] = lastHop{id: id, at: at, layer: l, seen: prev.seen | 1<<l}
}

func (s *Sink) host(name string) *hostAgg {
	if name == s.lastHost && s.lastAgg != nil {
		return s.lastAgg
	}
	a := s.hosts[name]
	if a == nil {
		a = &hostAgg{}
		s.hosts[name] = a
	}
	s.lastHost, s.lastAgg = name, a
	return a
}

// Sample implements sim.Metrics.
func (s *Sink) Sample(host string, kind sim.ProfKind, owner string, prio sim.Priority, start, dur sim.Time) {
	a := s.host(host)
	a.prof[kind] += dur
	a.samples[kind]++
	if kind == sim.ProfDispatch && owner != "thread-spawn" && owner != "softirq" {
		s.dispatchEvals++
	}
}

// QueueDepth implements sim.Metrics.
func (s *Sink) QueueDepth(host string, depth int) {
	if s.anyServer && !s.host(host).server {
		return
	}
	if depth > maxDepth {
		depth = maxDepth
	}
	s.depth[depth]++
	s.depthObs++
}

// Hops reports how many hops were recorded; Dropped how many of them the
// ring has overwritten.
func (s *Sink) Hops() uint64 { return s.total }

// Dropped reports how many hop records the ring overwrote.
func (s *Sink) Dropped() uint64 {
	if s.total <= uint64(len(s.ring)) {
		return 0
	}
	return s.total - uint64(len(s.ring))
}

// LayerSimPerPkt is the mean simulated time a packet spent in the layer
// before its next hop, over the packets that touched the layer.
func (s *Sink) LayerSimPerPkt(l Layer) sim.Time {
	if s.layerPkts[l] == 0 {
		return 0
	}
	return s.layerGap[l] / sim.Time(s.layerPkts[l])
}

// Prof sums attributed simulated CPU time and sample counts of one kind over
// the named hosts (every host when none are named).
func (s *Sink) Prof(kind sim.ProfKind, hosts []string) (total sim.Time, samples uint64) {
	if len(hosts) == 0 {
		for _, a := range s.hosts {
			total += a.prof[kind]
			samples += a.samples[kind]
		}
		return total, samples
	}
	for _, h := range hosts {
		if a := s.hosts[h]; a != nil {
			total += a.prof[kind]
			samples += a.samples[kind]
		}
	}
	return total, samples
}

// GuardEvals estimates guard evaluations on all hosts: dispatcher charges
// minus one invocation charge per handler body that ran.
func (s *Sink) GuardEvals() uint64 {
	var handlers uint64
	for _, a := range s.hosts {
		handlers += a.samples[sim.ProfHandler]
	}
	if s.dispatchEvals < handlers {
		return 0
	}
	return s.dispatchEvals - handlers
}

// RunQueueP99 is the 99th-percentile run-queue depth seen at task arrival.
func (s *Sink) RunQueueP99() int {
	if s.depthObs == 0 {
		return 0
	}
	want := (s.depthObs*99 + 99) / 100
	var seen uint64
	for d, n := range s.depth {
		seen += n
		if seen >= want {
			return d
		}
	}
	return maxDepth
}

// Begin opens a benchmark-level span under parent (0 = root) and returns its
// id; End closes it.
func (s *Sink) Begin(name string, parent uint64) uint64 {
	s.spanID++
	s.spans = append(s.spans, SpanRecord{ID: s.spanID, Parent: parent, Name: name, Start: s.wall(), End: -1})
	return s.spanID
}

// End closes the span opened by Begin.
func (s *Sink) End(id uint64) {
	for i := range s.spans {
		if s.spans[i].ID == id {
			s.spans[i].End = s.wall()
			return
		}
	}
}

// Retained returns the hops still in the ring, oldest first.
func (s *Sink) Retained() []HopRecord {
	n := uint64(len(s.ring))
	if s.total <= n {
		return s.ring[:s.total]
	}
	out := make([]HopRecord, 0, n)
	at := s.total % n
	out = append(out, s.ring[at:]...)
	return append(out, s.ring[:at]...)
}

// WriteJSONL writes the benchmark-level spans and then the retained hops,
// one JSON object per line.
func (s *Sink) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	buf := make([]byte, 0, 256)
	for _, sp := range s.spans {
		buf = append(buf[:0], `{"type":"span","id":`...)
		buf = strconv.AppendUint(buf, sp.ID, 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendUint(buf, sp.Parent, 10)
		buf = append(buf, `,"name":`...)
		buf = strconv.AppendQuote(buf, sp.Name)
		buf = append(buf, `,"start_wall_ns":`...)
		buf = strconv.AppendInt(buf, sp.Start, 10)
		buf = append(buf, `,"end_wall_ns":`...)
		buf = strconv.AppendInt(buf, sp.End, 10)
		buf = append(buf, "}\n"...)
		w.Write(buf)
	}
	for _, h := range s.Retained() {
		buf = append(buf[:0], `{"type":"hop","span":`...)
		buf = strconv.AppendUint(buf, h.Span, 10)
		buf = append(buf, `,"id":`...)
		buf = strconv.AppendUint(buf, h.ID, 10)
		buf = append(buf, `,"cause":`...)
		buf = strconv.AppendUint(buf, h.Cause, 10)
		buf = append(buf, `,"layer":`...)
		buf = strconv.AppendQuote(buf, h.Layer)
		buf = append(buf, `,"action":`...)
		buf = strconv.AppendQuote(buf, h.Action)
		buf = append(buf, `,"host":`...)
		buf = strconv.AppendQuote(buf, h.Host)
		buf = append(buf, `,"sim_ns":`...)
		buf = strconv.AppendInt(buf, int64(h.Sim), 10)
		buf = append(buf, `,"wall_ns":`...)
		buf = strconv.AppendInt(buf, h.Wall, 10)
		buf = append(buf, `,"bytes":`...)
		buf = strconv.AppendInt(buf, int64(h.Bytes), 10)
		buf = append(buf, "}\n"...)
		w.Write(buf)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

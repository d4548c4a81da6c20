package bench

import (
	"bytes"
	"fmt"
	"io"
	"strconv"

	"plexus/internal/netdev"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/telemetry"
	"plexus/internal/view"
)

// This file implements the `-exp telemetry` experiment: the time-series
// plane's own evaluation. Each cell runs a fixed workload with the full
// whole-system probe set sampling at 1ms — link, mbuf pools, per-connection
// TCP, event-queue depth, and (sharded) per-port switch queues — with every
// watchdog armed. The row records how much the plane observed (series,
// points, ticks) and its determinism witness: the series digest, which must
// be identical at any -parallel or -shards setting because sampling rides
// the simulated clock. A clean cell must raise zero alarms; an alarm here
// fails the sweep the same way an audit violation fails `-exp loss`.

// telemetryInterval is the sampling period every cell uses.
const telemetryInterval = sim.Millisecond

// WorkloadShardedEcho is the sharded telemetry cell: per-shard engines over
// a switched two-segment cell with cross-segment traffic.
const WorkloadShardedEcho = "sharded-echo"

// TelemetryRow is one cell of the telemetry sweep.
type TelemetryRow struct {
	System   System   `json:"system"`
	Workload string   `json:"workload"`
	Interval sim.Time `json:"interval_ns"`
	// Shards is the number of per-shard sampling engines (1 for two-host
	// cells: one engine covers the whole network).
	Shards int `json:"shards"`
	// Series/Points/Ticks measure coverage: distinct time series, total
	// observations pushed (cumulative, not just retained), sampling ticks.
	Series int    `json:"series"`
	Points uint64 `json:"points"`
	Ticks  uint64 `json:"ticks"`
	// Digest is the FNV-1a series witness (per-shard digests folded in shard
	// order), rendered in hex. Byte-identical runs have equal digests.
	Digest string `json:"digest"`
	// Alarms must be zero: every cell is a clean path.
	Alarms uint64 `json:"alarms"`
	// TCP is the transports' conformance gauge summed over every host in the
	// cell (see LossRow.TCP).
	TCP TCPGauge `json:"tcp"`
}

// telemetryRowFrom summarizes one cell's engines into a row.
func telemetryRowFrom(sys System, wl string, engines []*telemetry.Engine) TelemetryRow {
	row := TelemetryRow{System: sys, Workload: wl, Interval: engines[0].Interval(), Shards: len(engines)}
	for _, e := range engines {
		row.Series += len(e.AllSeries())
		for _, se := range e.AllSeries() {
			row.Points += se.Total()
		}
		row.Ticks += e.Ticks()
		row.Alarms += e.AlarmTotal()
	}
	row.Digest = strconv.FormatUint(plexus.MergedDigest(engines), 16)
	return row
}

// telemetryDump concatenates the engines' JSONL exports in shard order.
func telemetryDump(engines []*telemetry.Engine) ([]byte, error) {
	var buf bytes.Buffer
	for _, e := range engines {
		if err := e.WriteJSONL(&buf); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// telemetryMonitorOptions is the full probe-and-watchdog configuration every
// cell runs under: all watchdogs armed with windows a clean run never hits.
func telemetryMonitorOptions() plexus.MonitorOptions {
	return plexus.MonitorOptions{
		Telemetry:       telemetry.Options{Interval: telemetryInterval},
		TCPStallWindow:  5 * sim.Second,
		SwitchPinWindow: 100 * sim.Millisecond,
	}
}

// telemetryTCPBulk monitors a 256KB bulk transfer end to end.
func telemetryTCPBulk(sys System) (TelemetryRow, []byte, error) {
	n, client, server, err := twoHosts(netdev.EthernetModel(), sys)
	if err != nil {
		return TelemetryRow{}, nil, err
	}
	eng := n.Monitor(telemetryMonitorOptions())
	defer recordEvents(n.Sim)
	const size = 256 << 10
	rx, err := startBulk(client, server, size)
	if err != nil {
		return TelemetryRow{}, nil, err
	}
	n.Sim.RunUntil(10 * sim.Second)
	if rx.got != size {
		return TelemetryRow{}, nil, fmt.Errorf("bulk transfer delivered %d of %d bytes", rx.got, size)
	}
	row := telemetryRowFrom(sys, WorkloadTCPBulk, []*telemetry.Engine{eng})
	row.TCP = tcpGauge(client, server)
	dump, err := telemetryDump([]*telemetry.Engine{eng})
	return row, dump, err
}

// telemetryUDPEcho monitors a continuous 8-byte UDP echo loop.
func telemetryUDPEcho(sys System) (TelemetryRow, []byte, error) {
	n, client, server, err := twoHosts(netdev.EthernetModel(), sys)
	if err != nil {
		return TelemetryRow{}, nil, err
	}
	eng := n.Monitor(telemetryMonitorOptions())
	defer recordEvents(n.Sim)
	if err := startEchoServer(server); err != nil {
		return TelemetryRow{}, nil, err
	}
	msg := make([]byte, 8)
	rounds := 0
	var capp *plexus.UDPApp
	capp, err = client.OpenUDP(plexus.UDPAppOptions{}, func(t *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		rounds++
		_ = capp.Send(t, server.Addr(), 7, msg)
	})
	if err != nil {
		return TelemetryRow{}, nil, err
	}
	client.Spawn("kick", func(t *sim.Task) { _ = capp.Send(t, server.Addr(), 7, msg) })
	n.Sim.RunUntil(500 * sim.Millisecond)
	if rounds == 0 {
		return TelemetryRow{}, nil, fmt.Errorf("echo loop never completed a round")
	}
	row := telemetryRowFrom(sys, WorkloadUDPEcho, []*telemetry.Engine{eng})
	row.TCP = tcpGauge(client, server)
	dump, err := telemetryDump([]*telemetry.Engine{eng})
	return row, dump, err
}

// telemetrySharded monitors a two-segment switched cell — one engine per
// shard, each sampling only its shard's state — driven by local and
// cross-segment paced UDP echo. The engine advances on ShardWorkers()
// goroutines; the merged digest must not depend on that count.
func telemetrySharded(sys System) (TelemetryRow, []byte, error) {
	const (
		segments = 2
		perSeg   = 3
		duration = 300 * sim.Millisecond
	)
	segs := make([]plexus.SegmentSpec, segments)
	for i := 0; i < segments; i++ {
		spec := plexus.SegmentSpec{
			Name: fmt.Sprintf("seg%d", i), Model: netdev.EthernetModel(), Switched: true,
			Uplink: scaleUplinkModel(),
			Subnet: view.IP4{10, 0, byte(i + 1), 0},
		}
		for c := 0; c < perSeg; c++ {
			spec.Hosts = append(spec.Hosts, hostSpec(fmt.Sprintf("h%d-%d", i, c), sys))
		}
		segs[i] = spec
	}
	gw := hostSpec("gw", sys)
	top, err := plexus.NewShardedTopology(1, &gw, segs)
	if err != nil {
		return TelemetryRow{}, nil, err
	}
	top.PrimeARPSparse()
	engines := top.Monitor(telemetryMonitorOptions())
	defer func() {
		for _, s := range top.Sims {
			recordEvents(s)
		}
	}()

	var pcs []*pacedClient
	start := func(cl *plexus.Stack, server view.IP4, ival, offset sim.Time) error {
		pc, err := startPaced(cl, server, scaleEchoPayload, ival, offset, duration)
		if err == nil {
			pcs = append(pcs, pc)
		}
		return err
	}
	for si, seg := range top.Segments {
		if err := startEchoServer(seg.Hosts[0]); err != nil {
			return TelemetryRow{}, nil, err
		}
		// Host 1 paces cross-segment echoes through the gateway (at the
		// scale sweep's interval — the uplink RTT alone is ~40ms); host 2
		// echoes off the local server.
		remote := top.Segments[(si+1)%segments].Hosts[0]
		if err := start(seg.Hosts[1], remote.Addr(), scaleCrossInterval, 0); err != nil {
			return TelemetryRow{}, nil, err
		}
		if err := start(seg.Hosts[2], seg.Hosts[0].Addr(), 10*sim.Millisecond, 5*sim.Millisecond); err != nil {
			return TelemetryRow{}, nil, err
		}
	}
	top.Run(duration, ShardWorkers())

	for _, pc := range pcs {
		if pc.ops == 0 {
			return TelemetryRow{}, nil, fmt.Errorf("a paced client completed no ops")
		}
	}
	row := telemetryRowFrom(sys, WorkloadShardedEcho, engines)
	hosts := append([]*plexus.Stack{}, top.Gateway.Ifaces...)
	for _, seg := range top.Segments {
		hosts = append(hosts, seg.Hosts...)
	}
	row.TCP = tcpGauge(hosts...)
	dump, err := telemetryDump(engines)
	return row, dump, err
}

// telemetryCell is one cell of the sweep.
type telemetryCell struct {
	sys System
	wl  string
}

func telemetryCells() []telemetryCell {
	var cells []telemetryCell
	for _, sys := range []System{SysPlexusInterrupt, SysDUX} {
		for _, wl := range []string{WorkloadTCPBulk, WorkloadUDPEcho} {
			cells = append(cells, telemetryCell{sys, wl})
		}
	}
	// One sharded cell: per-shard engines, ShardWorkers() goroutines.
	cells = append(cells, telemetryCell{SysPlexusInterrupt, WorkloadShardedEcho})
	return cells
}

func runTelemetryCell(c telemetryCell) (TelemetryRow, []byte, error) {
	var row TelemetryRow
	var dump []byte
	var err error
	switch c.wl {
	case WorkloadTCPBulk:
		row, dump, err = telemetryTCPBulk(c.sys)
	case WorkloadUDPEcho:
		row, dump, err = telemetryUDPEcho(c.sys)
	default:
		row, dump, err = telemetrySharded(c.sys)
	}
	if err != nil {
		return TelemetryRow{}, nil, fmt.Errorf("telemetry %s/%s: %w", c.sys, c.wl, err)
	}
	if row.Alarms != 0 {
		return TelemetryRow{}, nil, fmt.Errorf("telemetry %s/%s: clean path raised %d watchdog alarms", c.sys, c.wl, row.Alarms)
	}
	return row, dump, nil
}

// Telemetry runs the sweep: every cell with the full probe set and all
// watchdogs armed, fanned out over RunCells.
func Telemetry() ([]TelemetryRow, error) {
	return RunCells(telemetryCells(), func(c telemetryCell) (TelemetryRow, error) {
		row, _, err := runTelemetryCell(c)
		return row, err
	})
}

// TelemetryDump runs the sweep and writes every cell's JSONL export to w,
// each cell preceded by a {"cell": ...} marker line. The output is the CI
// determinism witness: byte-identical at any -parallel or -shards setting.
func TelemetryDump(w io.Writer) error {
	cells := telemetryCells()
	dumps, err := RunCells(cells, func(c telemetryCell) ([]byte, error) {
		_, dump, err := runTelemetryCell(c)
		return dump, err
	})
	if err != nil {
		return err
	}
	for i, d := range dumps {
		if _, err := fmt.Fprintf(w, "{\"cell\":\"%s/%s\"}\n", cells[i].sys, cells[i].wl); err != nil {
			return err
		}
		if _, err := w.Write(d); err != nil {
			return err
		}
	}
	return nil
}

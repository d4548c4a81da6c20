// Command plexus-bench regenerates the paper's evaluation: every figure and
// table of §4 and §5, plus the ablations DESIGN.md calls out. Output is
// aligned text, one section per experiment, in the same rows/series the
// paper reports.
//
// Experiment cells run concurrently on a worker pool (see internal/bench
// RunCells); every cell owns its seeded simulator, so the reported rows are
// byte-identical at any -parallel setting — only the wall clock changes.
//
// Usage:
//
//	plexus-bench                 # run everything
//	plexus-bench -exp fig5       # one experiment: fig5 | tput | fig6 | fig7 | http |
//	                             #   latency | loss | rogue | scale | fabric |
//	                             #   ablations | telemetry | cc
//	plexus-bench -exp fig5 -fastdriver
//	plexus-bench -size 2097152   # bulk-transfer size for tput
//	plexus-bench -parallel 1     # sequential (deterministic baseline)
//	plexus-bench -json           # also write BENCH_<exp>.json per experiment
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"plexus/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all | fig5 | tput | fig6 | fig7 | http | latency | loss | rogue | scale | fabric | ablations | telemetry | cc")
	fast := flag.Bool("fastdriver", false, "use the faster device driver variant (§4.1)")
	size := flag.Int("size", 1<<20, "bulk transfer size in bytes for -exp tput")
	parallel := flag.Int("parallel", 0, "experiment cells run concurrently (0 = GOMAXPROCS, 1 = sequential)")
	shards := flag.Int("shards", 1, "shard worker goroutines per sharded scale cell (rows identical at any value)")
	hosts := flag.String("hosts", "1000,10000,50000", "comma-separated host counts for the sharded scale cells (\"\" = none)")
	jsonOut := flag.Bool("json", false, "write BENCH_<exp>.json with rows, wall-clock, events/sec, allocs/event")
	telemetryOut := flag.String("telemetry", "", "write the telemetry sweep's raw JSONL series to this path (determinism witness; implies running -exp telemetry's cells)")
	flag.Parse()

	bench.SetParallelism(*parallel)
	bench.SetShardWorkers(*shards)
	hostCounts, err := parseCounts(*hosts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "plexus-bench: -hosts: %v\n", err)
		os.Exit(1)
	}

	run := func(name string, fn func() (any, error)) {
		if *exp != "all" && *exp != name {
			return
		}
		bench.ResetEventCount()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		rows, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "plexus-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		wall := time.Since(start)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		if !*jsonOut {
			return
		}
		events := bench.EventCount()
		allocs := after.Mallocs - before.Mallocs
		report := benchReport{
			Experiment:   name,
			Parallel:     bench.Parallelism(),
			WallClockSec: wall.Seconds(),
			SimEvents:    events,
			Rows:         rows,
		}
		if wall > 0 {
			report.EventsPerSec = float64(events) / wall.Seconds()
		}
		if events > 0 {
			report.AllocsPerEvent = float64(allocs) / float64(events)
		}
		if err := writeReport(report); err != nil {
			fmt.Fprintf(os.Stderr, "plexus-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("fig5", func() (any, error) { return fig5(*fast) })
	run("tput", func() (any, error) { return tput(*size) })
	run("fig6", fig6)
	run("fig7", fig7)
	run("http", httpDemo)
	run("latency", latency)
	run("loss", loss)
	run("rogue", rogue)
	run("scale", func() (any, error) { return scale(hostCounts) })
	run("fabric", fabricExp)
	run("ablations", ablations)
	run("telemetry", telemetryExp)
	run("cc", ccExp)

	if *telemetryOut != "" {
		if err := writeTelemetryDump(*telemetryOut); err != nil {
			fmt.Fprintf(os.Stderr, "plexus-bench: -telemetry: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeTelemetryDump re-runs the telemetry cells and writes their raw JSONL
// series — the artifact CI diffs across -parallel/-shards settings.
func writeTelemetryDump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.TelemetryDump(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseCounts parses a comma-separated list of positive integers; empty
// means none.
func parseCounts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad count %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// benchReport is the machine-readable record of one experiment, written as
// BENCH_<exp>.json so the perf trajectory is tracked across PRs.
type benchReport struct {
	Experiment     string  `json:"experiment"`
	Parallel       int     `json:"parallel"`
	WallClockSec   float64 `json:"wall_clock_sec"`
	SimEvents      uint64  `json:"sim_events"`
	EventsPerSec   float64 `json:"events_per_sec"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	Rows           any     `json:"rows"`
}

func writeReport(r benchReport) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(fmt.Sprintf("BENCH_%s.json", r.Experiment), append(data, '\n'), 0o644)
}

func header(title string) {
	fmt.Printf("\n%s\n", title)
	for range title {
		fmt.Print("-")
	}
	fmt.Println()
}

func fig5(fast bool) (any, error) {
	title := "Figure 5: UDP round-trip latency, 8-byte packets (µs)"
	if fast {
		title += " — faster device driver"
	}
	header(title)
	rows, err := bench.Fig5(fast)
	if err != nil {
		return nil, err
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "device\tsystem\tRTT (µs)\tp50\tp90\tp99")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.0f\t%.0f\t%.0f\t%.0f\n",
			r.Device, r.System, r.RTT.Micros(), r.P50.Micros(), r.P90.Micros(), r.P99.Micros())
	}
	return rows, w.Flush()
}

func tput(size int) (any, error) {
	header(fmt.Sprintf("§4.2: TCP throughput, %d-byte transfer (Mb/s)", size))
	rows, err := bench.Throughput(size)
	if err != nil {
		return nil, err
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "device\tsystem\tMb/s")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.1f\n", r.Device, r.System, r.Mbps)
	}
	return rows, w.Flush()
}

func fig6() (any, error) {
	header("Figure 6: video server CPU utilization vs client streams (T3)")
	rows, err := bench.Fig6([]int{1, 5, 10, 15, 20, 25, 30})
	if err != nil {
		return nil, err
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "streams\tSPIN/Plexus CPU\tDIGITAL UNIX CPU\tgoodput (Mb/s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%.1f%%\t%.1f%%\t%.1f\n",
			r.Streams,
			r.Utilization[bench.SysPlexusInterrupt]*100,
			r.Utilization[bench.SysDUX]*100,
			r.GoodputMbps)
	}
	return rows, w.Flush()
}

func fig7() (any, error) {
	header("Figure 7: TCP redirection latency (request→echo, through forwarder)")
	rows, err := bench.Fig7([]int{64, 256, 512, 1024, 1460})
	if err != nil {
		return nil, err
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "payload (B)\tPlexus in-kernel (µs)\tDUX user-level (µs)\tratio")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%.0f\t%.0f\t%.2f\n",
			r.PayloadBytes, r.KernelLatency.Micros(), r.SpliceLatency.Micros(),
			float64(r.SpliceLatency)/float64(r.KernelLatency))
	}
	return rows, w.Flush()
}

func httpDemo() (any, error) {
	header("HTTP service (the paper's concluding demo): mean GET latency, 1KB body")
	rows, err := bench.HTTP(20)
	if err != nil {
		return nil, err
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "server\tlatency (µs)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.0f\n", r.System, r.Latency.Micros())
	}
	return rows, w.Flush()
}

func latency() (any, error) {
	header("RTT distribution: UDP echo percentiles with the metrics plane enabled (µs)")
	rows, err := bench.Latency(bench.DefaultLatencyRounds)
	if err != nil {
		return nil, err
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "device\tsystem\tmean\tp50\tp90\tp99\tmbuf in-use\tmbuf high-water")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.0f\t%.0f\t%.0f\t%.0f\t%d\t%d\n",
			r.Device, r.System, r.Mean.Micros(), r.P50.Micros(), r.P90.Micros(), r.P99.Micros(),
			r.Mbuf.InUse, r.Mbuf.HighWater)
	}
	return rows, w.Flush()
}

func loss() (any, error) {
	header("Robustness: goodput/delivery/latency vs injected frame loss (Ethernet)")
	rows, err := bench.Loss(bench.DefaultLossRates())
	if err != nil {
		return nil, err
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "pattern\tloss\tsystem\tworkload\tmetric\tdelivered\tlost\tlink drops")
	for _, r := range rows {
		var metric string
		switch r.Workload {
		case bench.WorkloadTCPBulk:
			metric = fmt.Sprintf("%.2f Mb/s", r.GoodputMbps)
		case bench.WorkloadSPPStream:
			metric = fmt.Sprintf("%.0f%% msgs, p99 %.0fµs", r.DeliveredPct, r.P99.Micros())
		default:
			metric = fmt.Sprintf("p50 %.0fµs p99 %.0fµs", r.P50.Micros(), r.P99.Micros())
		}
		fmt.Fprintf(w, "%s\t%.0f%%\t%s\t%s\t%s\t%.1f%%\t%d\t%d\n",
			r.Pattern, r.RatePct, r.System, r.Workload, metric,
			r.DeliveredPct, r.Fault.Lost, r.LinkDropped)
	}
	return rows, w.Flush()
}

func rogue() (any, error) {
	header("Extension safety: well-behaved flows vs misbehaving extensions (Ethernet)")
	rows, err := bench.Rogue(bench.DefaultRogueCounts())
	if err != nil {
		return nil, err
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "rogues\tsystem\tworkload\tmetric\tdelivered\tquarantined\tpanics\tterm\tguard overruns")
	for _, r := range rows {
		var metric string
		if r.Workload == bench.WorkloadTCPBulk {
			metric = fmt.Sprintf("%.2f Mb/s", r.GoodputMbps)
		} else {
			metric = fmt.Sprintf("%.0f%% msgs", r.DeliveredPct)
		}
		fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%.1f%%\t%d\t%d\t%d\t%d\n",
			r.Rogues, r.System, r.Workload, metric, r.DeliveredPct,
			r.Quarantined, r.Panics+r.GuardPanics, r.Terminations, r.GuardOverruns)
	}
	return rows, w.Flush()
}

func scale(hostCounts []int) (any, error) {
	header("Scale: client cells vs one server, plus sharded N-host topologies")
	rows, err := bench.Scale(bench.DefaultScaleClients(), hostCounts, bench.DefaultScaleDuration)
	if err != nil {
		return nil, err
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "hosts\tclients\tsystem\tworkload\tsegs\tops\tgoodput (Mb/s)\tserver CPU\tp50 (µs)\tp99 (µs)\tretries\tswitch drops\trx errors\tevents")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\t%d\t%.2f\t%.1f%%\t%.0f\t%.0f\t%d\t%d\t%d\t%d\n",
			r.Hosts, r.Clients, r.System, r.Workload, r.Segments, r.Ops, r.GoodputMbps,
			r.ServerCPU*100, r.P50.Micros(), r.P99.Micros(),
			r.Retries, r.SwitchDrops, r.RxErrors, r.Events)
	}
	return rows, w.Flush()
}

func fabricExp() (any, error) {
	header("Fabric: VIP-load-balanced datacenter cell (ACL → LB → NAT → ECMP on the gateway)")
	rows, err := bench.Fabric(bench.DefaultFabricRates(), bench.DefaultFabricPools(), bench.DefaultFabricDuration)
	if err != nil {
		return nil, err
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "rate (req/s)\tpool\tclients\tops\tgoodput (Mb/s)\tp50 (µs)\tp99 (µs)\tretries\tskew\tNAT entries\tlink split\tpipe drops\tevents")
	for _, r := range rows {
		split := ""
		for i, h := range r.LinkHits {
			if i > 0 {
				split += "/"
			}
			split += strconv.FormatUint(h, 10)
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.2f\t%.0f\t%.0f\t%d\t%.2f\t%d\t%s\t%d\t%d\n",
			r.Rate, r.PoolSize, r.Clients, r.Ops, r.GoodputMbps,
			r.P50.Micros(), r.P99.Micros(), r.Retries, r.Skew,
			r.NATOccupancy, split, r.PipeDrops, r.Events)
	}
	return rows, w.Flush()
}

func telemetryExp() (any, error) {
	header("Telemetry: whole-system 1ms sampling — coverage, determinism digest, conformance gauges")
	rows, err := bench.Telemetry()
	if err != nil {
		return nil, err
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "system\tworkload\tshards\tseries\tpoints\tticks\tdigest\talarms\tRSTs rej\tTW rearms\tTW quiet drops")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\n",
			r.System, r.Workload, r.Shards, r.Series, r.Points, r.Ticks, r.Digest, r.Alarms,
			r.TCP.RSTsRejected, r.TCP.TimeWaitRearms, r.TCP.TimeWaitQuietDrops)
	}
	return rows, w.Flush()
}

func ccExp() (any, error) {
	header("Congestion control: two flows sharing one switch port — fairness sweep")
	rows, err := bench.CC()
	if err != nil {
		return nil, err
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "algos\tbw (Mb/s)\tprop (µs)\tloss\tgoodput A/B (Mb/s)\tJain\trexmit A/B\tqueue peak/mean/cap\tport drops\taudit viol")
	for _, r := range rows {
		fmt.Fprintf(w, "%s+%s\t%d\t%d\t%.0f%%\t%.2f / %.2f\t%.3f\t%.3f / %.3f\t%d / %.1f / %d\t%d\t%d\n",
			r.AlgoA, r.AlgoB, r.BandwidthMbps, r.PropDelayUs, r.LossPct,
			r.GoodputA, r.GoodputB, r.Jain, r.RexmitRatioA, r.RexmitRatioB,
			r.QueuePeak, r.QueueMean, r.QueueCap, r.PortDrops, r.AuditViolations)
	}
	return rows, w.Flush()
}

func ablations() (any, error) {
	header("Ablations")
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "configuration\tvalue (µs)\tnote")
	spoof, err := bench.SpoofPolicyAblation(100)
	if err != nil {
		return nil, err
	}
	cksum, err := bench.ChecksumAblation(1400)
	if err != nil {
		return nil, err
	}
	guards, err := bench.GuardChainAblation([]int{0, 10, 50, 100})
	if err != nil {
		return nil, err
	}
	filters, err := bench.FilterBackendAblation(50)
	if err != nil {
		return nil, err
	}
	ilp, err := bench.ILPAblation(10)
	if err != nil {
		return nil, err
	}
	var all []bench.AblationRow
	for _, rows := range [][]bench.AblationRow{spoof, cksum, guards, filters, ilp} {
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.1f\t%s\n", r.Name, r.Value.Micros(), r.Note)
			all = append(all, r)
		}
	}
	return all, w.Flush()
}

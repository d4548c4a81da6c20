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
//	plexus-bench -exp fig5       # one experiment of bench.Sweeps (-exp typo lists them)
//	plexus-bench -exp fig5-fastdriver
//	plexus-bench -parallel 1     # sequential (deterministic baseline)
//	plexus-bench -json           # also write BENCH_<exp>.json per experiment
//	                             #   (host timings go to stderr)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"plexus/internal/bench"
)

func main() {
	names := []string{"all"}
	for _, sw := range bench.Sweeps(nil) {
		names = append(names, sw.Name)
	}
	exp := flag.String("exp", "all", "experiment: "+strings.Join(names, " | "))
	parallel := flag.Int("parallel", 0, "experiment cells run concurrently (0 = GOMAXPROCS, 1 = sequential)")
	shards := flag.Int("shards", 1, "shard worker goroutines per sharded scale cell (rows identical at any value)")
	hosts := flag.String("hosts", "1000,10000,50000", "comma-separated host counts for the sharded scale cells (\"\" = none)")
	jsonOut := flag.Bool("json", false, "write BENCH_<exp>.json with the rows and simulated event count; wall-clock, events/sec and allocs/event go to stderr")
	telemetryOut := flag.String("telemetry", "", "write the telemetry sweep's raw JSONL series to this path (determinism witness; implies running -exp telemetry's cells)")
	flag.Parse()

	bench.SetParallelism(*parallel)
	bench.SetShardWorkers(*shards)
	hostCounts, err := parseCounts(*hosts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "plexus-bench: -hosts: %v\n", err)
		os.Exit(1)
	}

	if !slices.Contains(names, *exp) {
		fmt.Fprintf(os.Stderr, "plexus-bench: unknown experiment %q; valid: %s\n", *exp, strings.Join(names, ", "))
		os.Exit(2)
	}

	for _, sw := range bench.Sweeps(hostCounts) {
		if *exp != "all" && *exp != sw.Name {
			continue
		}
		bench.ResetEventCount()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		rows, err := sw.Run()
		if err == nil {
			err = printRows(rows)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "plexus-bench: %s: %v\n", sw.Name, err)
			os.Exit(1)
		}
		wall := time.Since(start)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		if !*jsonOut {
			continue
		}
		// The file holds only what the simulation determines; the host's
		// cost of producing it goes to stderr.
		events := bench.EventCount()
		fmt.Fprintf(os.Stderr, "plexus-bench: %s: %.3fs wall, %.0f events/s, %.2f allocs/event\n", sw.Name,
			wall.Seconds(), float64(events)/wall.Seconds(), float64(after.Mallocs-before.Mallocs)/float64(max(events, 1)))
		report := benchReport{Experiment: sw.Name, Parallel: bench.Parallelism(), SimEvents: events, Rows: rows}
		if err := writeReport(report); err != nil {
			fmt.Fprintf(os.Stderr, "plexus-bench: %s: %v\n", sw.Name, err)
			os.Exit(1)
		}
	}

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
// BENCH_<exp>.json. Every field is simulated behaviour, so a committed file
// changes only when the model does.
type benchReport struct {
	Experiment string `json:"experiment"`
	Parallel   int    `json:"parallel"`
	SimEvents  uint64 `json:"sim_events"`
	Rows       any    `json:"rows"`
}

func writeReport(r benchReport) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(fmt.Sprintf("BENCH_%s.json", r.Experiment), append(data, '\n'), 0o644)
}

// header prints an experiment's title, underlined, and queues its column
// names on w.
func header(w io.Writer, title, columns string) {
	fmt.Printf("\n%s\n", title)
	for range title {
		fmt.Print("-")
	}
	fmt.Println()
	fmt.Fprintln(w, columns)
}

// printRows prints an experiment's rows as its aligned text section.
func printRows(rows any) error {
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	switch rows := rows.(type) {
	case []bench.Fig5Row:
		header(w, "Figure 5: UDP round-trip latency, 8-byte packets (µs)", "device\tsystem\tRTT (µs)\tp50\tp90\tp99")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%.0f\t%.0f\t%.0f\t%.0f\n",
				r.Device, r.System, r.RTT.Micros(), r.P50.Micros(), r.P90.Micros(), r.P99.Micros())
		}
	case []bench.TputRow:
		header(w, fmt.Sprintf("§4.2: TCP throughput, %d-byte transfer (Mb/s)", bench.TputBytes), "device\tsystem\tMb/s")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%.1f\n", r.Device, r.System, r.Mbps)
		}
	case []bench.Fig6Row:
		header(w, "Figure 6: video server CPU utilization vs client streams (T3)",
			"streams\tSPIN/Plexus CPU\tDIGITAL UNIX CPU\tgoodput (Mb/s)")
		for _, r := range rows {
			fmt.Fprintf(w, "%d\t%.1f%%\t%.1f%%\t%.1f\n",
				r.Streams,
				r.Utilization[bench.SysPlexusInterrupt]*100,
				r.Utilization[bench.SysDUX]*100,
				r.GoodputMbps)
		}
	case []bench.Fig7Row:
		header(w, "Figure 7: TCP redirection latency (request→echo, through forwarder)",
			"payload (B)\tPlexus in-kernel (µs)\tDUX user-level (µs)\tratio")
		for _, r := range rows {
			fmt.Fprintf(w, "%d\t%.0f\t%.0f\t%.2f\n",
				r.PayloadBytes, r.KernelLatency.Micros(), r.SpliceLatency.Micros(),
				float64(r.SpliceLatency)/float64(r.KernelLatency))
		}
	case []bench.HTTPRow:
		header(w, "HTTP service (the paper's concluding demo): mean GET latency, 1KB body", "server\tlatency (µs)")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.0f\n", r.System, r.Latency.Micros())
		}
	case []bench.LatencyRow:
		header(w, "RTT distribution: UDP echo percentiles with the metrics plane enabled (µs)",
			"device\tsystem\tmean\tp50\tp90\tp99\tmbuf in-use\tmbuf high-water")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%.0f\t%.0f\t%.0f\t%.0f\t%d\t%d\n",
				r.Device, r.System, r.Mean.Micros(), r.P50.Micros(), r.P90.Micros(), r.P99.Micros(),
				r.Mbuf.InUse, r.Mbuf.HighWater)
		}
	case []bench.LossRow:
		header(w, "Robustness: goodput/delivery/latency vs injected frame loss (Ethernet)",
			"pattern\tloss\tsystem\tworkload\tmetric\tdelivered\tlost\tlink drops")
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
	case []bench.RogueRow:
		header(w, "Extension safety: well-behaved flows vs misbehaving extensions (Ethernet)",
			"rogues\tsystem\tworkload\tmetric\tdelivered\tquarantined\tpanics\tterm\tguard overruns")
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
	case []bench.ScaleRow:
		header(w, "Scale: client cells vs one server, plus sharded N-host topologies",
			"hosts\tclients\tsystem\tworkload\tsegs\tops\tgoodput (Mb/s)\tserver CPU\tp50 (µs)\tp99 (µs)\tretries\tswitch drops\trx errors\tevents")
		for _, r := range rows {
			fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\t%d\t%.2f\t%.1f%%\t%.0f\t%.0f\t%d\t%d\t%d\t%d\n",
				r.Hosts, r.Clients, r.System, r.Workload, r.Segments, r.Ops, r.GoodputMbps,
				r.ServerCPU*100, r.P50.Micros(), r.P99.Micros(),
				r.Retries, r.SwitchDrops, r.RxErrors, r.Events)
		}
	case []bench.FabricRow:
		header(w, "Fabric: VIP-load-balanced datacenter cell (ACL → LB → NAT → ECMP on the gateway)",
			"rate (req/s)\tpool\tclients\tops\tgoodput (Mb/s)\tp50 (µs)\tp99 (µs)\tretries\tskew\tNAT entries\tlink split\tpipe drops\tevents")
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
	case []bench.AblationRow:
		header(w, "Ablations", "configuration\tvalue (µs)\tnote")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.1f\t%s\n", r.Name, r.Value.Micros(), r.Note)
		}
	case []bench.TelemetryRow:
		header(w, "Telemetry: whole-system 1ms sampling — coverage, determinism digest, conformance gauges",
			"system\tworkload\tshards\tseries\tpoints\tticks\tdigest\talarms\tRSTs rej\tTW rearms\tTW quiet drops")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\n",
				r.System, r.Workload, r.Shards, r.Series, r.Points, r.Ticks, r.Digest, r.Alarms,
				r.TCP.RSTsRejected, r.TCP.TimeWaitRearms, r.TCP.TimeWaitQuietDrops)
		}
	case []bench.CCRow:
		header(w, "Congestion control: two flows sharing one switch port — fairness sweep",
			"algos\tbw (Mb/s)\tprop (µs)\tloss\tgoodput A/B (Mb/s)\tJain\trexmit A/B\tqueue peak/mean/cap\tport drops\taudit viol")
		for _, r := range rows {
			fmt.Fprintf(w, "%s+%s\t%d\t%d\t%.0f%%\t%.2f / %.2f\t%.3f\t%.3f / %.3f\t%d / %.1f / %d\t%d\t%d\n",
				r.AlgoA, r.AlgoB, r.BandwidthMbps, r.PropDelayUs, r.LossPct,
				r.GoodputA, r.GoodputB, r.Jain, r.RexmitRatioA, r.RexmitRatioB,
				r.QueuePeak, r.QueueMean, r.QueueCap, r.PortDrops, r.AuditViolations)
		}
	default:
		return fmt.Errorf("no printer for %T", rows)
	}
	return w.Flush()
}

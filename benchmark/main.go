// Command benchmark measures the simulator on two clocks — what a run costs
// the host, and what the run reports in simulated time — on six workloads,
// and takes a per-layer ledger from outside the program through public
// accessors, the sim.Metrics hook and layer probes.
//
//	go run ./benchmark -seed 1
//
// runs every workload (untraced, then traced, each in its own process) and
// prints every metric by name with its unit. With -workload it runs one
// workload in this process and ends with one JSON line, the form
// BENCHMARK.json's command is driven in:
//
//	benchmark -workload tcp-bulk -seed 1 -seconds 10 -trace 0
//
// See README.md in this directory for the metrics and the noise recipe.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"plexus/benchmark/probe"
	"plexus/benchmark/results"
	"plexus/benchmark/trace"
	"plexus/benchmark/workload"
)

const (
	// minReps is the fewest timed repetitions a run reports a median over.
	minReps = 5
	// hopRing is how many of the traced repetition's last hops are kept for
	// the JSONL file; the per-layer sums cover every hop regardless.
	hopRing = 1 << 16
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	size     float64
	outDir   string
	runs     int
	out      string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run this one workload in-process and end with one JSON line (default: all, one process each)")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the simulator, payloads, send slots and loss draws")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the timed repetitions of one run go on")
	fs.IntVar(&o.trace, "trace", 0, "1 = one traced repetition plus the layer probes: prints the per-layer metrics")
	fs.Float64Var(&o.size, "size", 1, "scale of the simulated work per repetition (the smoke test uses a fraction)")
	fs.StringVar(&o.outDir, "outdir", filepath.Join("benchmark", "out"), "where the traced repetition writes trace-<workload>.jsonl and cpu-<workload>.pprof")
	fs.IntVar(&o.runs, "runs", 1, "all-workloads mode: untraced runs per workload, seeds seed, seed+1, ... (the traced run is made once, on seed)")
	fs.StringVar(&o.out, "out", "", "all-workloads mode: write the result set here, for benchmark/compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// One simulator thread plus room for the collector, whatever the host.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	if o.workload == "" {
		if err := runAll(o, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	wl, ok := workload.ByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}
	var rep *report
	var err error
	if o.trace == 0 {
		rep, err = measureUntraced(wl, o)
	} else {
		rep, err = measureTraced(wl, o)
	}
	if err != nil {
		// An oracle that cannot run, or a run that is not deterministic,
		// prints no numbers.
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", wl.Name, err)
		return 1
	}
	rep.print(stdout)
	if !rep.line.Correct {
		return 1
	}
	return 0
}

// outMetric and outLine are the final JSON line.
type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type outLine struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

// report is one run's outcome: the JSON line plus what is printed above it
// for people.
type report struct {
	workload string
	decl     []metric
	line     outLine
	digest   uint64
	notes    []string
	// values is everything the run produced, including the few internal
	// counts the ledger needs that are not declared metrics.
	values map[string]float64
}

func (r *report) set(values map[string]float64) {
	r.values = values
	r.line.Metrics = make(map[string]outMetric, len(r.decl))
	for _, m := range r.decl {
		r.line.Metrics[m.Name] = outMetric{Value: values[m.Name], Unit: m.Unit}
	}
}

func (r *report) print(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "sim_digest %016x\n", r.digest)
	for _, m := range r.decl {
		fmt.Fprintf(w, "%-12s %-34s %16.6g %s\n", r.workload, m.Name, r.line.Metrics[m.Name].Value, m.Unit)
	}
	b, _ := json.Marshal(r.line)
	fmt.Fprintf(w, "%s\n", b)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// repetitions runs the workload untraced: one warm-up (lazy set-up, heap
// growth, free lists), then timed repetitions for about budget seconds, at
// least atLeast of them. Every repetition must reproduce the first one's
// digest: simulated results may not depend on the host.
func repetitions(wl workload.Workload, o options, budget float64, atLeast int) ([]*workload.Result, error) {
	p := workload.Params{Seed: o.seed, Size: o.size}
	first, err := wl.Run(p)
	if err != nil {
		return nil, err
	}
	var reps []*workload.Result
	start := time.Now()
	for {
		repStart := time.Now()
		r, err := wl.Run(p)
		if err != nil {
			return nil, err
		}
		if r.Digest != first.Digest {
			return nil, fmt.Errorf("repetition %d: sim_digest %016x differs from the first repetition's %016x",
				len(reps)+1, r.Digest, first.Digest)
		}
		reps = append(reps, r)
		// Stop when another repetition like the last would overrun.
		next := time.Since(start).Seconds() + time.Since(repStart).Seconds()
		if len(reps) >= atLeast && next > budget {
			return reps, nil
		}
	}
}

// hostValues reduces the timed repetitions to the host-clock medians.
func hostValues(reps []*workload.Result) map[string]float64 {
	var setup, rate, cpu, allocs, allocBytes, rss []float64
	for _, r := range reps {
		ops := float64(r.Ops())
		setup = append(setup, r.Setup.Sec)
		rate = append(rate, ops/(float64(r.Host.WallNs)/1e9))
		cpu = append(cpu, float64(r.Host.CPUNs)/1e3/ops)
		// Set-up allocations count: a repetition needs them too, and they
		// keep the metric off zero on workloads whose steady state
		// allocates nothing.
		allocs = append(allocs, (r.Setup.Mallocs+float64(r.Host.Mallocs))/ops)
		allocBytes = append(allocBytes, (r.Setup.AllocBytes+float64(r.Host.AllocBytes))/ops)
		rss = append(rss, r.Host.PeakRSSMB)
	}
	return map[string]float64{
		"setup_s":            median(setup),
		"ops_per_wall_s":     median(rate),
		"cpu_us_per_op":      median(cpu),
		"allocs_per_op":      median(allocs),
		"alloc_bytes_per_op": median(allocBytes),
		"peak_rss_mb":        median(rss),
	}
}

func tally(reps []*workload.Result) (attempted, failed uint64, failures []string) {
	for _, r := range reps {
		attempted += r.Attempted
		failed += r.Failed
		failures = append(failures, r.Failures...)
	}
	if len(failures) > 8 {
		failures = failures[:8]
	}
	return attempted, failed, failures
}

func measureUntraced(wl workload.Workload, o options) (*report, error) {
	reps, err := repetitions(wl, o, o.seconds, minReps)
	if err != nil {
		return nil, err
	}
	v := hostValues(reps)
	s := reps[0].Sim
	v["sim_latency_p50_us"] = s.LatencyP50us
	v["sim_latency_p99_us"] = s.LatencyP99us
	v["sim_goodput_mbps"] = s.GoodputMbps
	v["sim_cpu_us_per_op"] = s.CPUusPerOp

	rep := &report{workload: wl.Name, decl: endToEnd, digest: reps[0].Digest}
	var failures []string
	rep.line.Attempted, rep.line.Failed, failures = tally(reps)
	rep.line.Correct = rep.line.Failed == 0
	rep.notes = append(rep.notes,
		fmt.Sprintf("%s: op = %s; %s", wl.Name, wl.Op, wl.Loop),
		fmt.Sprintf("%s: %d timed repetitions after 1 warm-up, %d ops each, %d latency samples behind p50/p99",
			wl.Name, len(reps), reps[0].Ops(), s.Samples))
	var rates []string
	for _, r := range reps {
		rates = append(rates, fmt.Sprintf("%.4g", float64(r.Ops())/(float64(r.Host.WallNs)/1e9)))
	}
	rep.notes = append(rep.notes, fmt.Sprintf("%s: ops/wall-s per repetition: %s", wl.Name, strings.Join(rates, " ")))
	for _, f := range failures {
		rep.notes = append(rep.notes, "FAILED OP: "+f)
	}
	rep.set(v)
	return rep, nil
}

func measureTraced(wl workload.Workload, o options) (*report, error) {
	// The sink exists before the untraced repetitions run, though nothing is
	// installed yet: its ring is several megabytes of live heap, which alone
	// makes the collector run less often, and the overhead figure should show
	// what recording costs, not what a bigger heap saves.
	sink := trace.NewSink(hopRing)
	// Untraced repetitions first: the ledger's denominator and the trace
	// overhead's base both come from runs without the sink installed.
	reps, err := repetitions(wl, o, o.seconds*0.4, 2)
	if err != nil {
		return nil, err
	}
	base := reps[0]
	sink.SampleRunQueueOf(base.Servers)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	prof, err := os.Create(filepath.Join(o.outDir, "cpu-"+wl.Name+".pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	root := sink.Begin("traced:"+wl.Name, 0)
	traced, runErr := wl.Run(workload.Params{Seed: o.seed, Size: o.size, Sink: sink})
	sink.End(root)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	if traced.Digest != base.Digest {
		return nil, fmt.Errorf("traced repetition's sim_digest %016x differs from the untraced %016x: the sink changed simulated results",
			traced.Digest, base.Digest)
	}
	probes := probe.Run(o.size, sink, root)
	if err := sink.WriteJSONL(filepath.Join(o.outDir, "trace-"+wl.Name+".jsonl")); err != nil {
		return nil, err
	}

	rep := &report{workload: wl.Name, decl: perLayer, digest: base.Digest}
	var failures []string
	rep.line.Attempted, rep.line.Failed, failures = tally(append(reps, traced))
	rep.line.Correct = rep.line.Failed == 0
	rep.notes = append(rep.notes, fmt.Sprintf("%s: %d untraced repetitions, 1 traced (%d hops, %d kept in %s), %d probes",
		wl.Name, len(reps), sink.Hops(), sink.Hops()-sink.Dropped(), filepath.Join(o.outDir, "trace-"+wl.Name+".jsonl"), len(probes)))
	for _, f := range failures {
		rep.notes = append(rep.notes, "FAILED OP: "+f)
	}
	rep.set(layerValues(reps, traced, sink, probes))
	return rep, nil
}

// child is what the all-workloads mode keeps of one child process.
type child struct {
	line   outLine
	digest string
}

// spawn runs this binary on one workload and parses its last line.
func spawn(o options, name string, seed int64, traceMode int, stderr io.Writer) (child, error) {
	self, err := os.Executable()
	if err != nil {
		return child{}, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(traceMode), "-size", fmt.Sprint(o.size), "-outdir", o.outDir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	runErr := cmd.Run()
	var c child
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if d, ok := strings.CutPrefix(last, "sim_digest "); ok {
			c.digest = d
		}
		if strings.HasPrefix(last, "FAILED OP: ") {
			fmt.Fprintln(stderr, name+": "+last)
		}
	}
	if runErr != nil && last == "" {
		return c, fmt.Errorf("%s (trace %d): %w", name, traceMode, runErr)
	}
	if err := json.Unmarshal([]byte(last), &c.line); err != nil {
		return c, fmt.Errorf("%s (trace %d): no result line: %w", name, traceMode, err)
	}
	return c, nil
}

// runAll is the one command: every workload untraced, then traced, one
// process each, every metric printed by name with its unit.
func runAll(o options, stdout, stderr io.Writer) error {
	set := results.Set{Seed: o.seed, Seconds: o.seconds, Size: o.size}
	correct := true
	for _, wl := range workload.All() {
		for i := 0; i < o.runs; i++ {
			seed := o.seed + int64(i)
			rec := results.Run{Workload: wl.Name, Seed: seed, EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}}
			for traceMode, into := range []map[string]float64{rec.EndToEnd, rec.PerLayer} {
				if traceMode == 1 && i > 0 {
					break // the per-layer numbers are taken once, on the first seed
				}
				c, err := spawn(o, wl.Name, seed, traceMode, stderr)
				if err != nil {
					return err
				}
				if rec.Digest != "" && rec.Digest != c.digest {
					return fmt.Errorf("%s seed %d: sim_digest %s traced, %s untraced", wl.Name, seed, c.digest, rec.Digest)
				}
				rec.Digest = c.digest
				rec.Attempted += c.line.Attempted
				rec.Failed += c.line.Failed
				correct = correct && c.line.Correct
				decl := endToEnd
				if traceMode == 1 {
					decl = perLayer
				}
				for _, m := range decl {
					into[m.Name] = c.line.Metrics[m.Name].Value
					fmt.Fprintf(stdout, "%-12s seed %-3d %-34s %16.6g %s\n", wl.Name, seed, m.Name, c.line.Metrics[m.Name].Value, m.Unit)
				}
			}
			fmt.Fprintf(stdout, "%-12s seed %-3d %-34s %16s\n", wl.Name, seed, "sim_digest", rec.Digest)
			fmt.Fprintf(stdout, "%-12s seed %-3d %-34s %16.6g ratio (%d failed of %d attempted)\n", wl.Name, seed, "fail_ratio",
				float64(rec.Failed)/float64(rec.Attempted), rec.Failed, rec.Attempted)
			set.Runs = append(set.Runs, rec)
		}
	}
	if o.out != "" {
		if err := set.Save(o.out); err != nil {
			return err
		}
	}
	if !correct {
		return fmt.Errorf("at least one op failed its oracle")
	}
	return nil
}

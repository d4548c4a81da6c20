package repro

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"plexus/internal/bench"
	"plexus/internal/sim"
)

// paperRows holds the committed rows the paper's claims are checked against.
// TestCommittedSweeps proves each file equal to what the simulator
// regenerates, so the claims need no simulation of their own.
type paperRows struct {
	fig5      []bench.Fig5Row
	fig5fast  []bench.Fig5Row
	tput      []bench.TputRow
	fig6      []bench.Fig6Row
	fig7      []bench.Fig7Row
	http      []bench.HTTPRow
	ablations []bench.AblationRow
	latency   []bench.LatencyRow
	rogue     []bench.RogueRow
	telemetry []bench.TelemetryRow
}

func loadPaperRows(t *testing.T) *paperRows {
	t.Helper()
	r := &paperRows{}
	for exp, rows := range map[string]any{
		"fig5": &r.fig5, "fig5-fastdriver": &r.fig5fast, "tput": &r.tput, "fig6": &r.fig6, "fig7": &r.fig7, "http": &r.http,
		"ablations": &r.ablations, "latency": &r.latency, "rogue": &r.rogue, "telemetry": &r.telemetry,
	} {
		if err := readCommitted(exp, rows); err != nil {
			t.Fatalf("BENCH_%s.json: %v", exp, err)
		}
	}
	return r
}

// A claim is one statement of the paper, or of the reproduction's own
// extensions, checked against the committed rows. value is the paper's
// number, where it gives one, and check receives it. gap marks a known miss
// of the reproduction: its check allows today's deviation from value, so the
// gap cannot widen unnoticed.
type claim struct {
	id, section, sentence string
	value                 float64
	gap                   bool
	check                 func(r *paperRows, value float64) error
}

// eval runs c's check; a row the check looks up but the rows lack fails it.
func (c claim) eval(r *paperRows) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	return c.check(r, c.value)
}

var (
	intr, thread, dux = bench.SysPlexusInterrupt, bench.SysPlexusThread, bench.SysDUX
	devices           = []string{"ethernet", "fore-atm", "dec-t3"}
)

// paperClaims is every expectation the committed rows are held to, in
// EXPERIMENTS.md's order.
var paperClaims = []claim{
	{"fig5.devices", "§4", "the testbed's three networks, in the order every table lists them", 0, false,
		func(r *paperRows, _ float64) error {
			var got []string
			for _, row := range r.fig5 {
				got = append(got, row.Device)
			}
			got = slices.Compact(got)
			return expect(slices.Equal(got, devices), "devices %v", got)
		}},
	{"fig5.order", "§4.1, Figure 5", "interrupt dispatch beats thread dispatch; DIGITAL UNIX is slower still", 0, false,
		func(r *paperRows, _ float64) error {
			return each(devices, func(dev string) error {
				d, i, th, u := rtt(r, dev, bench.SysDriverMin), rtt(r, dev, intr), rtt(r, dev, thread), rtt(r, dev, dux)
				return expect(d < i && i < th && th < u, "drivers %v, interrupt %v, thread %v, DIGITAL UNIX %v", d, i, th, u)
			})
		}},
	{"fig5.dux-slower", "§4.1, Figure 5", "DIGITAL UNIX, with identical drivers, is substantially slower (1.4× here)", 0, false,
		func(r *paperRows, _ float64) error {
			return each(devices, func(dev string) error { return atMost(1.4*rtt(r, dev, intr).Micros(), rtt(r, dev, dux).Micros()) })
		}},
	{"fig5.ethernet", "§1", "round-trip latency for a small UDP packet is less than 600 µsecs on an Ethernet", 600, false,
		func(r *paperRows, v float64) error { return atMost(rtt(r, "ethernet", intr).Micros(), v) }},
	{"fig5.atm", "§1", "... 350 µsecs on a Fore ATM network", 350, false,
		func(r *paperRows, v float64) error { return atMost(rtt(r, "fore-atm", intr).Micros(), v) }},
	{"fig5.t3", "§1", "... and 300 µsecs on a DEC T3 network (within 10 % here)", 300, false,
		func(r *paperRows, v float64) error { return atMost(rtt(r, "dec-t3", intr).Micros(), 1.1*v) }},
	{"fig5-fastdriver.ethernet", "§1", "with a faster device driver, 337 µsecs on Ethernet", 337, true,
		func(r *paperRows, v float64) error { return deviates(fastRTT(r, "ethernet-fastdrv"), v, 0.024) }},
	{"fig5-fastdriver.atm", "§1", "... and 241 µsecs on ATM (within 1 % here)", 241, false,
		func(r *paperRows, v float64) error { return deviates(fastRTT(r, "fore-atm-fastdrv"), v, 0.01) }},

	{"tput.ethernet", "§4.2", "TCP on the Ethernet is wire-limited at 8.9 Mb/s (7.5 to 10 here)", 8.9, false,
		func(r *paperRows, _ float64) error { return between(mbps(r, "ethernet", intr), 7.5, 10) }},
	{"tput.ethernet-same", "§4.2", "throughput is much less sensitive to operating system overheads than latency", 0, false,
		func(r *paperRows, _ float64) error {
			return between(mbps(r, "ethernet", intr)-mbps(r, "ethernet", dux), -1, 2)
		}},
	{"tput.atm-order", "§4.2", "on the programmed-I/O ATM, Plexus outruns DIGITAL UNIX", 0, false,
		func(r *paperRows, _ float64) error { return below(mbps(r, "fore-atm", dux), mbps(r, "fore-atm", intr)) }},
	{"tput.atm-pio", "§4.2", "programmed I/O caps the ATM adapter at 53 Mb/s", 53, false,
		func(r *paperRows, v float64) error { return atMost(mbps(r, "fore-atm", intr), v) }},
	{"tput.atm-plexus", "§4.2", "TCP over ATM: 33 Mb/s on Plexus", 33, true,
		func(r *paperRows, v float64) error { return deviates(mbps(r, "fore-atm", intr), v, 0.237) }},
	{"tput.atm-dux", "§4.2", "TCP over ATM: 27.9 Mb/s on DIGITAL UNIX", 27.9, true,
		func(r *paperRows, v float64) error { return deviates(mbps(r, "fore-atm", dux), v, 0.231) }},

	{"fig6.dux-cpu", "§5.1, Figure 6", "SPIN consumes only half as much of the processor (at most 1/1.6 here)", 0, false,
		func(r *paperRows, _ float64) error {
			return each(r.fig6, func(row bench.Fig6Row) error { return atMost(1.6*row.Utilization[intr], row.Utilization[dux]) })
		}},
	{"fig6.half-cpu", "§5.1, Figure 6", "SPIN consumes only half as much of the processor", 2, true,
		func(r *paperRows, v float64) error {
			return each(r.fig6, func(row bench.Fig6Row) error {
				return deviates(row.Utilization[dux]/row.Utilization[intr], v, 0.454)
			})
		}},
	{"fig6.grows", "§5.1, Figure 6", "server CPU grows with the number of streams", 0, false,
		func(r *paperRows, _ float64) error {
			spin := func(a, b bench.Fig6Row) int { return cmp.Compare(a.Utilization[intr], b.Utilization[intr]) }
			return expect(slices.IsSortedFunc(r.fig6, spin), "SPIN CPU falls as streams grow: %+v", r.fig6)
		}},
	{"fig6.saturates", "§5.1, Figure 6", "15 streams saturate the 45 Mb/s T3 (38 to 46 Mb/s here)", 45, false,
		func(r *paperRows, _ float64) error {
			return between(find(r.fig6, func(row bench.Fig6Row) bool { return row.Streams == 15 }).GoodputMbps, 38, 46)
		}},

	{"fig7.kernel-faster", "§5, Figure 7", "in-kernel forwarding beats the user-level splice at every payload", 0, false,
		func(r *paperRows, _ float64) error {
			return each(r.fig7, func(row bench.Fig7Row) error { return below(row.KernelLatency.Micros(), row.SpliceLatency.Micros()) })
		}},
	{"fig7.gap-shrinks", "§5, Figure 7", "the in-kernel node wins most at small (latency-dominated) requests", 0, false,
		func(r *paperRows, _ float64) error {
			ratio := func(row bench.Fig7Row) float64 { return row.SpliceLatency.Micros() / row.KernelLatency.Micros() }
			for i := 1; i < len(r.fig7); i++ {
				a, b := r.fig7[i-1], r.fig7[i]
				if err := expect(a.PayloadBytes < b.PayloadBytes && ratio(b) < ratio(a),
					"splice:kernel ratio %.3f at %d B, then %.3f at %d B", ratio(a), a.PayloadBytes, ratio(b), b.PayloadBytes); err != nil {
					return err
				}
			}
			return nil
		}},
	{"http.extension-faster", "§7", "the stack services HTTP requests, in the kernel faster than from user level", 0, false,
		func(r *paperRows, _ float64) error {
			return below(find(r.http, func(row bench.HTTPRow) bool { return row.System == intr }).Latency.Micros(),
				find(r.http, func(row bench.HTTPRow) bool { return row.System == dux }).Latency.Micros())
		}},

	{"ablation.spoof-cost", "§3.1", "both anti-spoofing policies, overwrite and verify, cost something per send", 0, false,
		func(r *paperRows, _ float64) error {
			return below(0, min(ablation(r, "spoof-policy/overwrite"), ablation(r, "spoof-policy/verify")))
		}},
	{"ablation.checksum-off", "§1.1", "an application may turn the UDP checksum off to save its cost", 0, false,
		func(r *paperRows, _ float64) error {
			return below(ablation(r, "udp-checksum/off (1400B)"), ablation(r, "udp-checksum/on (1400B)"))
		}},
	{"ablation.guard-chain", "§2", "extensions do not tax each other: 100 more endpoints add at most 100µs to a RTT", 0, false,
		func(r *paperRows, _ float64) error {
			return atMost(ablation(r, "guard-chain/100-extra-endpoints")-ablation(r, "guard-chain/0-extra-endpoints"), 100)
		}},
	{"ablation.filter-backend", "§3.5", "compiled typesafe guards cost less than interpreted packet filters", 0, false,
		func(r *paperRows, _ float64) error {
			return below(ablation(r, "filter-backend/native×50"), ablation(r, "filter-backend/interpreted×50"))
		}},
	{"ablation.ilp", "§5.1", "the video client is a good candidate for integrated layer processing", 0, false,
		func(r *paperRows, _ float64) error {
			return below(ablation(r, "video-client/ILP (10 streams)"), ablation(r, "video-client/two-pass (10 streams)"))
		}},

	{"latency.recorded", "extension: flight recorder", "every cell records hops, the mbuf high water and p50 ≤ p90 ≤ p99", 0, false,
		func(r *paperRows, _ float64) error {
			return each(r.latency, func(row bench.LatencyRow) error {
				return expect(row.P50 > 0 && row.P50 <= row.P90 && row.P90 <= row.P99 &&
					row.Mbuf.HighWater > 0 && row.HopsRecorded > 0, "a percentile, the high water or the hops")
			})
		}},
	{"latency.no-leak", "extension: flight recorder", "no cell leaves an mbuf in use after its run", 0, false,
		func(r *paperRows, _ float64) error {
			return each(r.latency, func(row bench.LatencyRow) error { return expect(row.Mbuf.InUse == 0, "mbufs in use") })
		}},

	{"rogue.delivered", "§2, §3.3", "a well-behaved flow completes beside misbehaving extensions", 0, false,
		func(r *paperRows, _ float64) error {
			var counts []int
			for _, row := range r.rogue {
				counts = append(counts, row.Rogues)
			}
			if n := len(slices.Compact(counts)); len(r.rogue) != 4*n {
				return fmt.Errorf("%d cells for %d rogue counts, want 2 systems × 2 workloads each", len(r.rogue), n)
			}
			return each(r.rogue, func(row bench.RogueRow) error { return expect(row.DeliveredPct == 100, "delivered") })
		}},
	{"rogue.clean", "§2, §3.3", "with no rogue installed, no fault counter moves", 0, false,
		func(r *paperRows, _ float64) error {
			return each(r.rogue, func(row bench.RogueRow) error {
				faults := uint64(row.Quarantined) + row.Panics + row.GuardPanics + row.Terminations + row.GuardOverruns
				return expect(row.Rogues > 0 || faults == 0, "faults")
			})
		}},
	{"rogue.quarantine", "§2, §3.3", "every rogue extension is quarantined", 0, false,
		func(r *paperRows, _ float64) error {
			return each(r.rogue, func(row bench.RogueRow) error { return expect(row.Quarantined == row.Rogues, "quarantined") })
		}},
	{"rogue.fault-classes", "§2, §3.3", "with all four rogue archetypes installed, every fault class fires", 0, false,
		func(r *paperRows, _ float64) error {
			return each(r.rogue, func(row bench.RogueRow) error {
				return expect(row.Rogues < 4 || row.Panics > 0 && row.GuardOverruns > 0 && row.Terminations > 0, "fault classes")
			})
		}},

	{"telemetry.no-alarms", "extension: telemetry plane", "no watchdog alarm fires on a clean cell", 0, false,
		func(r *paperRows, _ float64) error {
			return each(r.telemetry, func(row bench.TelemetryRow) error { return expect(row.Alarms == 0, "alarms") })
		}},
}

// TestPaperExpectations evaluates every claim over the committed rows.
func TestPaperExpectations(t *testing.T) {
	r := loadPaperRows(t)
	for _, c := range paperClaims {
		t.Run(c.id, func(t *testing.T) {
			if err := c.eval(r); err != nil {
				t.Errorf("%s %q (a known gap: %t): %v", c.section, c.sentence, c.gap, err)
			}
		})
	}
}

// TestPaperExpectationsCanFail doctors one committed row per kind of check
// and requires exactly the matching claim to fail.
func TestPaperExpectationsCanFail(t *testing.T) {
	for id, doctor := range map[string]func(r *paperRows){
		"fig5.order":               func(r *paperRows) { r.fig5[1].RTT = r.fig5[0].RTT - 1 },         // Ethernet thread below interrupt
		"fig5-fastdriver.ethernet": func(r *paperRows) { r.fig5fast[0].RTT = 346 * sim.Microsecond }, // 2.7 % over
		"fig6.dux-cpu":             func(r *paperRows) { r.fig6[3].Utilization[dux] = 1.5 * r.fig6[3].Utilization[intr] },
		"rogue.quarantine":         func(r *paperRows) { r.rogue[len(r.rogue)-1].Quarantined = 0 },
		"latency.no-leak":          func(r *paperRows) { r.latency[0].Mbuf.InUse = 1 },
		"fig7.gap-shrinks": func(r *paperRows) { // kernel still faster, ratio rising at 1460 B
			last := &r.fig7[len(r.fig7)-1]
			last.SpliceLatency = last.KernelLatency * 3 / 2
		},
	} {
		r := loadPaperRows(t)
		doctor(r)
		var failed []string
		for _, c := range paperClaims {
			if c.eval(r) != nil {
				failed = append(failed, c.id)
			}
		}
		if !slices.Equal(failed, []string{id}) {
			t.Errorf("doctored for %s: failing claims %v", id, failed)
		}
	}
}

func expect(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

func atMost(got, limit float64) error { return expect(got <= limit, "%g above %g", got, limit) }

func below(got, limit float64) error { return expect(got < limit, "%g not below %g", got, limit) }

func between(got, lo, hi float64) error {
	return expect(got >= lo && got <= hi, "%g outside [%g, %g]", got, lo, hi)
}

// deviates fails when got is further than allowed, relatively, from paper.
func deviates(got, paper, allowed float64) error {
	dev := math.Abs(got/paper - 1)
	return expect(dev <= allowed, "%.3f is %.1f%% from the paper's %g; %.1f%% allowed", got, 100*dev, paper, 100*allowed)
}

func rtt(r *paperRows, dev string, sys bench.System) sim.Time {
	return find(r.fig5, func(row bench.Fig5Row) bool { return row.Device == dev && row.System == sys }).RTT
}

// fastRTT is the Plexus (interrupt) RTT in µs on dev, a faster-driver
// device.
func fastRTT(r *paperRows, dev string) float64 {
	return find(r.fig5fast, func(row bench.Fig5Row) bool { return row.Device == dev && row.System == intr }).RTT.Micros()
}

func mbps(r *paperRows, dev string, sys bench.System) float64 {
	return find(r.tput, func(row bench.TputRow) bool { return row.Device == dev && row.System == sys }).Mbps
}

// ablation returns the named ablation row's value in µs.
func ablation(r *paperRows, name string) float64 {
	return find(r.ablations, func(row bench.AblationRow) bool { return row.Name == name }).Value.Micros()
}

// find returns the row match selects; a missing row fails the claim.
func find[T any](rows []T, match func(T) bool) T {
	i := slices.IndexFunc(rows, match)
	if i < 0 {
		panic(fmt.Sprintf("no %T row matches", *new(T)))
	}
	return rows[i]
}

// each checks every row, naming the first that fails.
func each[T any](rows []T, check func(T) error) error {
	for _, row := range rows {
		if err := check(row); err != nil {
			return fmt.Errorf("%+v: %w", row, err)
		}
	}
	return nil
}

// Command plexus-trace runs a small scenario on the simulated network and
// dumps what the flight recorder saw: a timeline of every CPU task and
// packet hop, single-packet lifecycle itineraries, a simulated-CPU profile as
// Chrome trace_event JSON (loadable in Perfetto) or folded stacks, each
// stamped with simulated time. It is the debugging lens for the protocol graph.
//
// Usage:
//
//	plexus-trace                      # UDP echo scenario: task + hop timeline
//	plexus-trace -scenario tcp        # TCP handshake + small transfer
//	plexus-trace -spans               # list packet lifecycle spans
//	plexus-trace -follow 3            # one packet's full itinerary, per-hop deltas
//	plexus-trace -chrome out.json     # Chrome trace_event profile (Perfetto):
//	                                  # CPU slices + telemetry counter tracks
//	                                  # + TCP state-transition instants
//	plexus-trace -folded out.txt      # folded-stacks CPU profile
//	plexus-trace -scenario tcp -tcpstates all
//	                                  # audited TCP state transitions + RFC 793 verdict
//	plexus-trace -scenario tcp -tcpstates 10.0.0.1:32768-10.0.0.2:80
//	                                  # one connection endpoint's transitions
//	plexus-trace -scenario tcp -tcpjsonl states.jsonl
//	                                  # state transitions as deterministic JSONL
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"plexus/internal/audit"
	"plexus/internal/icmp"
	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/stats"
	"plexus/internal/tcp"
	"plexus/internal/telemetry"
	"plexus/internal/view"
)

// options are the command's flags.
type options struct {
	scenario  string
	spans     bool
	follow    uint64
	chrome    string
	folded    string
	tcpstates string
	tcpjsonl  string
}

func main() {
	var o options
	flag.StringVar(&o.scenario, "scenario", "udp", "scenario: udp | tcp | ping")
	flag.BoolVar(&o.spans, "spans", false, "list packet lifecycle spans instead of the timeline")
	flag.Uint64Var(&o.follow, "follow", 0, "print the full itinerary of one packet span (see -spans)")
	flag.StringVar(&o.chrome, "chrome", "", "write a Chrome trace_event JSON profile to this file")
	flag.StringVar(&o.folded, "folded", "", "write a folded-stacks CPU profile to this file")
	flag.StringVar(&o.tcpstates, "tcpstates", "", `print audited TCP state transitions: "all" or "ip:port-ip:port"`)
	flag.StringVar(&o.tcpjsonl, "tcpjsonl", "", "write TCP state transitions as JSON lines to this file")
	flag.Parse()
	if err := run(os.Stdout, o, osmodel.PlexusInterrupt); err != nil {
		fmt.Fprintln(os.Stderr, "plexus-trace:", err)
		os.Exit(1)
	}
}

// hostSpec is the HostSpec whose personality and dispatch mode give b.
func hostSpec(name string, b osmodel.Boundary) plexus.HostSpec {
	spec := plexus.HostSpec{Name: name, Personality: osmodel.SPIN}
	switch b {
	case osmodel.PlexusThread:
		spec.Dispatch = osmodel.DispatchThread
	case osmodel.DigitalUnix:
		spec.Personality = osmodel.Monolithic
	}
	return spec
}

// run plays o's scenario between two hosts with boundary b and writes the
// views o asks for to w; with no view flag set, the timeline.
func run(w io.Writer, o options, b osmodel.Boundary) error {
	net, client, server, err := plexus.TwoHosts(1, netdev.EthernetModel(),
		hostSpec("client", b), hostSpec("server", b))
	if err != nil {
		return err
	}
	metrics := stats.NewRecorder()
	net.Sim.SetMetrics(metrics)

	// The TCP conformance-audit plane: an assertion sink retains every state
	// transition, the checker screens each against RFC 793, and the optional
	// JSONL sink writes the deterministic offline form. One shared pipeline
	// serves both hosts, so events interleave in simulated-time order. The
	// Chrome export renders the retained transitions as instant events on
	// each host's "states" track.
	var events *audit.AssertSink
	var checker *audit.Checker
	var jsonlFile *os.File
	var jsonl *audit.JSONLSink
	if o.tcpstates != "" || o.tcpjsonl != "" || o.chrome != "" {
		events = &audit.AssertSink{}
		sinks := audit.Tee{events}
		if o.tcpjsonl != "" {
			if jsonlFile, err = os.Create(o.tcpjsonl); err != nil {
				return err
			}
			defer jsonlFile.Close()
			jsonl = audit.NewJSONLSink(jsonlFile)
			sinks = append(sinks, jsonl)
		}
		checker = audit.NewChecker(sinks)
		client.TCP.SetAuditSink(checker)
		server.TCP.SetAuditSink(checker)
	}

	// The Chrome export also samples the whole system while the scenario
	// runs — link, pools, per-connection TCP, event queue — for counter
	// tracks beside the CPU profile. The sampling engine keeps the simulator
	// non-empty, so the run is horizon-bound instead of drain-bound: a 2s
	// horizon covers every scenario's activity and keeps the rings (2048
	// points at 1ms) from overwriting it with idle tail.
	var eng *telemetry.Engine
	horizon := 120 * sim.Second
	if o.chrome != "" {
		eng = net.Monitor(plexus.MonitorOptions{
			Telemetry: telemetry.Options{Interval: sim.Millisecond},
		})
		horizon = 2 * sim.Second
	}

	// appErr is the first error the scenario's application code saw.
	var appErr error
	switch o.scenario {
	case "udp":
		var echo *plexus.UDPApp
		echo, err = server.OpenUDP(plexus.UDPAppOptions{Port: 7}, func(t *sim.Task, data []byte, src view.IP4, srcPort uint16) {
			_ = echo.Send(t, src, srcPort, data)
		})
		if err != nil {
			return err
		}
		var capp *plexus.UDPApp
		capp, err = client.OpenUDP(plexus.UDPAppOptions{}, func(*sim.Task, []byte, view.IP4, uint16) {})
		if err != nil {
			return err
		}
		client.Spawn("client", func(t *sim.Task) {
			_ = capp.Send(t, server.Addr(), 7, []byte("01234567"))
		})
	case "tcp":
		_, err = server.ListenTCP(80, plexus.TCPAppOptions{
			OnRecv: func(t *sim.Task, conn *plexus.TCPApp, data []byte) {
				_ = conn.Send(t, data)
			},
			OnPeerFin: func(t *sim.Task, conn *plexus.TCPApp) { conn.Close(t) },
		}, nil)
		if err != nil {
			return err
		}
		client.Spawn("client", func(t *sim.Task) {
			_, appErr = client.ConnectTCP(t, server.Addr(), 80, plexus.TCPAppOptions{
				OnEstablished: func(t2 *sim.Task, conn *plexus.TCPApp) {
					_ = conn.Send(t2, []byte("hello over tcp"))
					conn.Close(t2)
				},
				OnRecv: func(*sim.Task, *plexus.TCPApp, []byte) {},
			})
		})
	case "ping":
		client.Spawn("ping", func(t *sim.Task) {
			appErr = client.ICMP.Ping(t, server.Addr(), 1, 1, []byte("ping"), func(*sim.Task, icmp.EchoReply) {})
		})
	default:
		return fmt.Errorf("unknown scenario %q", o.scenario)
	}
	net.Sim.RunUntil(horizon)
	if appErr != nil {
		return appErr
	}

	if o.chrome != "" {
		f, err := os.Create(o.chrome)
		if err != nil {
			return err
		}
		counters, err := writeChrome(f, metrics, eng, events.Events)
		if err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote Chrome trace (%d samples, %d hops, %d counter points, %d state instants) to %s — open at ui.perfetto.dev\n",
			metrics.SamplesRecorded(), metrics.HopsRecorded(), counters, len(events.Events), o.chrome)
	}
	if o.folded != "" {
		if err := os.WriteFile(o.folded, []byte(metrics.Folded()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote folded CPU profile to %s\n", o.folded)
	}
	if jsonlFile != nil {
		err := jsonl.Err()
		if cerr := jsonlFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d TCP state transitions to %s\n", jsonl.Lines(), o.tcpjsonl)
	}
	switch {
	case o.tcpstates != "":
		return printTCPStates(w, events, checker, o.tcpstates)
	case o.follow != 0:
		return printItinerary(w, metrics, o.follow)
	case o.spans:
		printSpans(w, metrics)
	case o.chrome == "" && o.folded == "" && o.tcpjsonl == "":
		printTimeline(w, metrics)
		fmt.Fprintf(w, "%d sim events executed, final time %v\n", net.Sim.Executed(), net.Sim.Now())
	}
	return nil
}

// printTimeline prints, in simulated-time order, every CPU task the recorder
// retained (at its start, with the time it charged) and every packet hop.
// Entries at the same instant keep the order the recorder saw them in, hops
// before tasks: a hop at a task's start time ended the task before it.
func printTimeline(w io.Writer, m *stats.Recorder) {
	type entry struct {
		at   sim.Time
		line string
	}
	var entries []entry
	for _, h := range m.Hops() {
		entries = append(entries, entry{h.At, fmt.Sprintf("%-6s hop  %-26s span %-4d %dB",
			h.Host, h.Layer+"."+h.Action, h.Span, h.Bytes)})
	}
	hops := len(entries)
	for _, s := range m.Samples() {
		if s.Kind == sim.ProfTask {
			entries = append(entries, entry{s.Start, fmt.Sprintf("%-6s task %-26s %-9s charged=%v",
				s.Host, s.Owner, s.Prio, s.Dur)})
		}
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].at < entries[j].at })
	for _, e := range entries {
		fmt.Fprintf(w, "%12v  %s\n", e.at, e.line)
	}
	fmt.Fprintf(w, "%d tasks, %d hops\n", len(entries)-hops, hops)
}

// printTCPStates prints the audited transitions (all, or one endpoint's) and
// the RFC 793 conformance verdict.
func printTCPStates(w io.Writer, events *audit.AssertSink, checker *audit.Checker, filter string) error {
	var match func(ev tcp.Transition) bool
	if filter == "all" {
		match = func(tcp.Transition) bool { return true }
	} else {
		la, lp, ra, rp, err := parseConn(filter)
		if err != nil {
			return err
		}
		match = func(ev tcp.Transition) bool {
			return ev.LocalAddr == la && ev.LocalPort == lp && ev.RemoteAddr == ra && ev.RemotePort == rp
		}
	}
	n := 0
	for _, ev := range events.Events {
		if !match(ev) {
			continue
		}
		n++
		cause := ev.Cause.Kind.String()
		switch ev.Cause.Kind {
		case tcp.CauseSegment:
			cause = fmt.Sprintf("segment %s seq=%d ack=%d", view.FlagString(ev.Cause.Flags), ev.Cause.Seq, ev.Cause.Ack)
		case tcp.CauseTimer, tcp.CauseUser:
			cause = fmt.Sprintf("%s %q", ev.Cause.Kind, ev.Cause.Detail)
		}
		fmt.Fprintf(w, "%12v  %-6s %15s:%-5d → %15s:%-5d  %-12s → %-12s  on %s\n",
			ev.At, ev.Host, ev.LocalAddr, ev.LocalPort, ev.RemoteAddr, ev.RemotePort,
			ev.Old, ev.New, cause)
	}
	fmt.Fprintf(w, "%d transitions (%d total), %d RFC 793 conformance violations\n",
		n, checker.Events(), checker.ViolationCount())
	for _, v := range checker.Violations() {
		fmt.Fprintf(w, "  VIOLATION at %v on %s: %s\n", v.Event.At, v.Event.Host, v.Reason)
	}
	return nil
}

// parseConn parses "ip:port-ip:port" as (local, remote) seen from one
// endpoint.
func parseConn(s string) (la view.IP4, lp uint16, ra view.IP4, rp uint16, err error) {
	halves := strings.Split(s, "-")
	if len(halves) != 2 {
		return la, lp, ra, rp, fmt.Errorf("bad connection %q: want ip:port-ip:port", s)
	}
	if la, lp, err = parseAddr(halves[0]); err != nil {
		return la, lp, ra, rp, err
	}
	ra, rp, err = parseAddr(halves[1])
	return la, lp, ra, rp, err
}

// parseAddr parses "a.b.c.d:port".
func parseAddr(s string) (view.IP4, uint16, error) {
	var ip view.IP4
	host, port, ok := strings.Cut(s, ":")
	if !ok {
		return ip, 0, fmt.Errorf("bad address %q: want ip:port", s)
	}
	octets := strings.Split(host, ".")
	if len(octets) != 4 {
		return ip, 0, fmt.Errorf("bad address %q: want dotted quad", host)
	}
	for i, o := range octets {
		v, err := strconv.ParseUint(o, 10, 8)
		if err != nil {
			return ip, 0, fmt.Errorf("bad address %q: %v", host, err)
		}
		ip[i] = byte(v)
	}
	p, err := strconv.ParseUint(port, 10, 16)
	if err != nil {
		return ip, 0, fmt.Errorf("bad port %q: %v", port, err)
	}
	return ip, uint16(p), nil
}

// printSpans summarizes every recorded packet span: first/last hop and count.
func printSpans(w io.Writer, m *stats.Recorder) {
	ids := m.Spans()
	if len(ids) == 0 {
		fmt.Fprintln(w, "no packet spans recorded")
		return
	}
	for _, id := range ids {
		hops := m.SpanHops(id)
		first, last := hops[0], hops[len(hops)-1]
		fmt.Fprintf(w, "span %-4d %2d hops  %12v → %-12v  %s/%s.%s → %s/%s.%s\n",
			id, len(hops), first.At, last.At,
			first.Host, first.Layer, first.Action, last.Host, last.Layer, last.Action)
	}
	fmt.Fprintf(w, "%d spans; follow one with -follow <n>\n", len(ids))
}

// printItinerary prints one packet's lifecycle with per-hop simulated-time
// deltas — the "where did my packet spend its time" view.
func printItinerary(w io.Writer, m *stats.Recorder, span uint64) error {
	hops := m.SpanHops(span)
	if len(hops) == 0 {
		return fmt.Errorf("span %d: no hops recorded (use -spans to list)", span)
	}
	fmt.Fprintf(w, "span %d: %d hops, %v total\n", span, len(hops), hops[len(hops)-1].At-hops[0].At)
	prev := hops[0].At
	for _, h := range hops {
		fmt.Fprintf(w, "  %12v  +%-10v %-8s %-6s %-14s %dB\n",
			h.At, h.At-prev, h.Host, h.Layer, h.Action, h.Bytes)
		prev = h.At
	}
	return nil
}

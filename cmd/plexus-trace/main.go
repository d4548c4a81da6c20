// Command plexus-trace runs a small scenario on the simulated network and
// dumps what the flight recorder saw: the annotated text trace (CPU task
// scheduling, wire transmissions, protocol decisions, dispatcher activity),
// single-packet lifecycle itineraries, a simulated-CPU profile as Chrome
// trace_event JSON (loadable in Perfetto) or folded stacks, each stamped
// with simulated time. It is the debugging lens for the protocol graph.
//
// Usage:
//
//	plexus-trace                      # UDP echo scenario, all categories
//	plexus-trace -scenario tcp        # TCP handshake + small transfer
//	plexus-trace -only net,proto      # filter categories (cpu,net,proto,app,event)
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
	"os"
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

func main() {
	scenario := flag.String("scenario", "udp", "scenario: udp | tcp | ping")
	only := flag.String("only", "", "comma-separated categories: cpu,net,proto,app,event (default all)")
	spans := flag.Bool("spans", false, "list packet lifecycle spans instead of the text trace")
	follow := flag.Uint64("follow", 0, "print the full itinerary of one packet span (see -spans)")
	chrome := flag.String("chrome", "", "write a Chrome trace_event JSON profile to this file")
	folded := flag.String("folded", "", "write a folded-stacks CPU profile to this file")
	tcpstates := flag.String("tcpstates", "", `print audited TCP state transitions: "all" or "ip:port-ip:port"`)
	tcpjsonl := flag.String("tcpjsonl", "", "write TCP state transitions as JSON lines to this file")
	flag.Parse()

	var cats []sim.TraceCategory
	if *only != "" {
		names := map[string]sim.TraceCategory{
			"cpu": sim.TraceCPU, "net": sim.TraceNet, "proto": sim.TraceProto,
			"app": sim.TraceApp, "event": sim.TraceEvent,
		}
		for _, n := range strings.Split(*only, ",") {
			cat, ok := names[strings.TrimSpace(n)]
			if !ok {
				fmt.Fprintf(os.Stderr, "plexus-trace: unknown category %q\n", n)
				os.Exit(2)
			}
			cats = append(cats, cat)
		}
	}

	net, client, server, err := plexus.TwoHosts(1, netdev.EthernetModel(),
		plexus.HostSpec{Name: "client", Personality: osmodel.SPIN},
		plexus.HostSpec{Name: "server", Personality: osmodel.SPIN})
	if err != nil {
		fmt.Fprintln(os.Stderr, "plexus-trace:", err)
		os.Exit(1)
	}
	rec := &sim.RecordingTracer{}
	net.Sim.SetTracer(rec)
	if len(cats) > 0 {
		// Emit-path filtering: disabled categories never pay the Sprintf.
		net.Sim.EnableTrace(cats...)
	}
	metrics := stats.NewRecorder(stats.Config{})
	net.Sim.SetMetrics(metrics)

	// The TCP conformance-audit plane: an assertion sink retains every state
	// transition, the checker screens each against RFC 793, and the optional
	// JSONL sink writes the deterministic offline form. One shared pipeline
	// serves both hosts, so events interleave in simulated-time order. The
	// Chrome export adds a flight-recorder ring whose retained transitions
	// become instant events on each host's "states" track.
	var events *audit.AssertSink
	var checker *audit.Checker
	var jsonlFile *os.File
	var jsonl *audit.JSONLSink
	var ring *audit.RingSink
	if *tcpstates != "" || *tcpjsonl != "" || *chrome != "" {
		events = &audit.AssertSink{}
		sinks := audit.Tee{events}
		if *tcpjsonl != "" {
			f, err := os.Create(*tcpjsonl)
			if err != nil {
				fmt.Fprintln(os.Stderr, "plexus-trace:", err)
				os.Exit(1)
			}
			jsonlFile = f
			jsonl = audit.NewJSONLSink(f)
			sinks = append(sinks, jsonl)
		}
		if *chrome != "" {
			ring = audit.NewRingSink(4096)
			sinks = append(sinks, ring)
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
	if *chrome != "" {
		eng = net.Monitor(plexus.MonitorOptions{
			Telemetry: telemetry.Options{Interval: sim.Millisecond},
			PoolCap:   1 << 20,
		})
		horizon = 2 * sim.Second
	}

	switch *scenario {
	case "udp":
		var echo *plexus.UDPApp
		echo, err = server.OpenUDP(plexus.UDPAppOptions{Port: 7}, func(t *sim.Task, data []byte, src view.IP4, srcPort uint16) {
			t.Sim().Tracef(sim.TraceApp, "server: echoing %dB to %v:%d", len(data), src, srcPort)
			_ = echo.Send(t, src, srcPort, data)
		})
		if err != nil {
			break
		}
		var capp *plexus.UDPApp
		capp, err = client.OpenUDP(plexus.UDPAppOptions{}, func(t *sim.Task, data []byte, src view.IP4, srcPort uint16) {
			t.Sim().Tracef(sim.TraceApp, "client: got %dB back", len(data))
		})
		if err != nil {
			break
		}
		client.Spawn("client", func(t *sim.Task) {
			t.Sim().Tracef(sim.TraceApp, "client: sending 8B to %v:7", server.Addr())
			_ = capp.Send(t, server.Addr(), 7, []byte("01234567"))
		})
	case "tcp":
		_, err = server.ListenTCP(80, plexus.TCPAppOptions{
			OnRecv: func(t *sim.Task, conn *plexus.TCPApp, data []byte) {
				t.Sim().Tracef(sim.TraceApp, "server: %dB received", len(data))
				_ = conn.Send(t, data)
			},
			OnPeerFin: func(t *sim.Task, conn *plexus.TCPApp) { conn.Close(t) },
		}, nil)
		if err != nil {
			break
		}
		client.Spawn("client", func(t *sim.Task) {
			_, cerr := client.ConnectTCP(t, server.Addr(), 80, plexus.TCPAppOptions{
				OnEstablished: func(t2 *sim.Task, conn *plexus.TCPApp) {
					t2.Sim().Tracef(sim.TraceApp, "client: established, sending")
					_ = conn.Send(t2, []byte("hello over tcp"))
					conn.Close(t2)
				},
				OnRecv: func(t2 *sim.Task, conn *plexus.TCPApp, data []byte) {
					t2.Sim().Tracef(sim.TraceApp, "client: %dB echoed", len(data))
				},
			})
			if cerr != nil {
				t.Sim().Tracef(sim.TraceApp, "client: connect failed: %v", cerr)
			}
		})
	case "ping":
		client.Spawn("ping", func(t *sim.Task) {
			_ = client.ICMP.Ping(t, server.Addr(), 1, 1, []byte("ping"), func(t2 *sim.Task, r icmp.EchoReply) {
				t2.Sim().Tracef(sim.TraceApp, "ping: reply seq=%d from %v", r.Seq, r.From)
			})
		})
	default:
		fmt.Fprintf(os.Stderr, "plexus-trace: unknown scenario %q\n", *scenario)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "plexus-trace:", err)
		os.Exit(1)
	}
	net.Sim.RunUntil(horizon)

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fmt.Fprintln(os.Stderr, "plexus-trace:", err)
			os.Exit(1)
		}
		counters := telemetry.ChromeCounters(eng)
		instants := audit.ChromeInstants(ring)
		if err := metrics.WriteChromeTraceWith(f, counters, instants); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "plexus-trace:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote Chrome trace (%d samples, %d hops, %d counter points, %d state instants) to %s — open at ui.perfetto.dev\n",
			metrics.SamplesRecorded(), metrics.HopsRecorded(), len(counters), len(instants), *chrome)
	}
	if *folded != "" {
		if err := os.WriteFile(*folded, []byte(metrics.Folded()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "plexus-trace:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote folded CPU profile to %s\n", *folded)
	}
	if jsonlFile != nil {
		err := jsonl.Err()
		if cerr := jsonlFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "plexus-trace:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d TCP state transitions to %s\n", jsonl.Lines(), *tcpjsonl)
	}
	switch {
	case *tcpstates != "":
		printTCPStates(events, checker, *tcpstates)
	case *follow != 0:
		printItinerary(metrics, *follow)
	case *spans:
		printSpans(metrics)
	case *chrome == "" && *folded == "" && *tcpjsonl == "":
		fmt.Print(rec.String())
		fmt.Printf("%d trace events, %d sim events executed, final time %v\n",
			len(rec.Lines), net.Sim.Executed(), net.Sim.Now())
	}
}

// printTCPStates prints the audited transitions (all, or one endpoint's) and
// the RFC 793 conformance verdict.
func printTCPStates(events *audit.AssertSink, checker *audit.Checker, filter string) {
	var match func(ev tcp.Transition) bool
	if filter == "all" {
		match = func(tcp.Transition) bool { return true }
	} else {
		la, lp, ra, rp, err := parseConn(filter)
		if err != nil {
			fmt.Fprintln(os.Stderr, "plexus-trace:", err)
			os.Exit(2)
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
		fmt.Printf("%12v  %-6s %15s:%-5d → %15s:%-5d  %-12s → %-12s  on %s\n",
			ev.At, ev.Host, ev.LocalAddr, ev.LocalPort, ev.RemoteAddr, ev.RemotePort,
			ev.Old, ev.New, cause)
	}
	fmt.Printf("%d transitions (%d total), %d RFC 793 conformance violations\n",
		n, checker.Events(), checker.ViolationCount())
	for _, v := range checker.Violations() {
		fmt.Printf("  VIOLATION at %v on %s: %s\n", v.Event.At, v.Event.Host, v.Reason)
	}
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
func printSpans(m *stats.Recorder) {
	ids := m.Spans()
	if len(ids) == 0 {
		fmt.Println("no packet spans recorded")
		return
	}
	for _, id := range ids {
		hops := m.SpanHops(id)
		first, last := hops[0], hops[len(hops)-1]
		fmt.Printf("span %-4d %2d hops  %12v → %-12v  %s/%s.%s → %s/%s.%s\n",
			id, len(hops), first.At, last.At,
			first.Host, first.Layer, first.Action, last.Host, last.Layer, last.Action)
	}
	fmt.Printf("%d spans; follow one with -follow <n>\n", len(ids))
}

// printItinerary prints one packet's lifecycle with per-hop simulated-time
// deltas — the "where did my packet spend its time" view.
func printItinerary(m *stats.Recorder, span uint64) {
	hops := m.SpanHops(span)
	if len(hops) == 0 {
		fmt.Printf("span %d: no hops recorded (use -spans to list)\n", span)
		os.Exit(1)
	}
	fmt.Printf("span %d: %d hops, %v total\n", span, len(hops), hops[len(hops)-1].At-hops[0].At)
	prev := hops[0].At
	for _, h := range hops {
		fmt.Printf("  %12v  +%-10v %-8s %-6s %-14s %dB\n",
			h.At, h.At-prev, h.Host, h.Layer, h.Action, h.Bytes)
		prev = h.At
	}
}

// Command plexus-top is the telemetry plane's viewer: per-host and per-flow
// tables plus sparkline timelines, rendered from a deterministic JSONL dump
// (plexus-bench -telemetry, or any engine's WriteJSONL) or live from a
// monitored demo scenario advancing in simulated time.
//
// Usage:
//
//	plexus-top -in telemetry.jsonl    # post-hoc: render a dump
//	plexus-top -demo                  # run a monitored TCP bulk transfer +
//	                                  # UDP echo loop, refreshing the view
//	                                  # as simulated time advances
//	plexus-top -demo -refresh 50      # frame interval in simulated ms
//	plexus-top -in d.jsonl -width 72  # sparkline width in columns
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/telemetry"
	"plexus/internal/view"
)

func main() {
	in := flag.String("in", "", "telemetry JSONL dump to render (see plexus-bench -telemetry)")
	demo := flag.Bool("demo", false, "run a monitored demo scenario and render it live")
	refresh := flag.Int("refresh", 100, "demo frame interval, simulated milliseconds")
	width := flag.Int("width", 60, "sparkline width in columns")
	flag.Parse()

	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "plexus-top:", err)
			os.Exit(1)
		}
		pts, err := telemetry.ReadJSONL(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "plexus-top:", err)
			os.Exit(1)
		}
		render(os.Stdout, pts, *width)
	case *demo:
		if err := runDemo(sim.Time(*refresh)*sim.Millisecond, *width); err != nil {
			fmt.Fprintln(os.Stderr, "plexus-top:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runDemo runs a monitored two-host scenario — a 256KB TCP bulk transfer
// beside a continuous UDP echo loop — rendering a frame every refresh of
// simulated time. Frames repaint in place on ANSI terminals.
func runDemo(refresh sim.Time, width int) error {
	spec := func(name string) plexus.HostSpec {
		return plexus.HostSpec{Name: name, Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt}
	}
	n, client, server, err := plexus.TwoHosts(1, netdev.EthernetModel(), spec("client"), spec("server"))
	if err != nil {
		return err
	}
	eng := n.Monitor(plexus.MonitorOptions{
		Telemetry:      telemetry.Options{Interval: sim.Millisecond},
		TCPStallWindow: 5 * sim.Second,
	})
	if _, err := server.ListenTCP(5001, plexus.TCPAppOptions{
		OnRecv:    func(t *sim.Task, conn *plexus.TCPApp, data []byte) {},
		OnPeerFin: func(t *sim.Task, conn *plexus.TCPApp) { conn.Close(t) },
	}, nil); err != nil {
		return err
	}
	msg := make([]byte, 256<<10)
	client.Spawn("sender", func(t *sim.Task) {
		_, _ = client.ConnectTCP(t, server.Addr(), 5001, plexus.TCPAppOptions{
			OnEstablished: func(t2 *sim.Task, conn *plexus.TCPApp) {
				_ = conn.Send(t2, msg)
				conn.Close(t2)
			},
		})
	})
	var echo *plexus.UDPApp
	echo, err = server.OpenUDP(plexus.UDPAppOptions{Port: 7}, func(t *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		_ = echo.Send(t, src, srcPort, data)
	})
	if err != nil {
		return err
	}
	ping := make([]byte, 8)
	var capp *plexus.UDPApp
	capp, err = client.OpenUDP(plexus.UDPAppOptions{}, func(t *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		_ = capp.Send(t, server.Addr(), 7, ping)
	})
	if err != nil {
		return err
	}
	client.Spawn("kick", func(t *sim.Task) { _ = capp.Send(t, server.Addr(), 7, ping) })

	const horizon = 2 * sim.Second
	var buf bytes.Buffer
	for until := refresh; until <= horizon; until += refresh {
		n.Sim.RunUntil(until)
		buf.Reset()
		if err := eng.WriteJSONL(&buf); err != nil {
			return err
		}
		pts, err := telemetry.ReadJSONL(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return err
		}
		fmt.Print("\x1b[H\x1b[2J")
		fmt.Printf("plexus-top — t=%v (refresh %v)\n", n.Sim.Now(), refresh)
		render(os.Stdout, pts, width)
	}
	if eng.AlarmTotal() > 0 {
		fmt.Printf("\n%d watchdog alarm(s):\n", eng.AlarmTotal())
		for _, a := range eng.Alarms() {
			fmt.Printf("  %v  %-16s %s (value %d, stalled since %v)\n", a.At, a.Rule, a.Series, a.Value, a.Since)
		}
	}
	return nil
}

// column is one reassembled series: identity plus its points in time order.
type column struct {
	series, host, labels string
	pts                  []telemetry.JSONLPoint
}

func (c *column) last() int64 {
	if len(c.pts) == 0 {
		return 0
	}
	return c.pts[len(c.pts)-1].V
}

// key is the sort identity: host first so tables group naturally.
func (c *column) key() string { return c.host + "\x00" + c.series + "\x00" + c.labels }

// render draws the three sections — hosts, flows, timelines — from a flat
// point list. Output is deterministic: identical dumps render identically.
func render(w io.Writer, pts []telemetry.JSONLPoint, width int) {
	cols := map[string]*column{}
	for _, p := range pts {
		if p.Series == "" {
			continue // cell marker lines in plexus-bench -telemetry dumps
		}
		k := p.Host + "\x00" + p.Series + "\x00" + p.Labels
		c, ok := cols[k]
		if !ok {
			c = &column{series: p.Series, host: p.Host, labels: p.Labels}
			cols[k] = c
		}
		c.pts = append(c.pts, p)
	}
	ordered := make([]*column, 0, len(cols))
	for _, c := range cols {
		ordered = append(ordered, c)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].key() < ordered[j].key() })

	renderHosts(w, ordered)
	renderFlows(w, ordered, width)
	renderTimelines(w, ordered, width)
}

// renderHosts prints one row per host that owns an mbuf pool or TCP flows:
// pool occupancy plus flow counts and totals.
func renderHosts(w io.Writer, cols []*column) {
	type hostRow struct {
		inUse, highWater int64
		conns            map[string]bool
		acked, rexmits   int64
	}
	rows := map[string]*hostRow{}
	names := []string{}
	get := func(host string) *hostRow {
		r, ok := rows[host]
		if !ok {
			r = &hostRow{conns: map[string]bool{}}
			rows[host] = r
			names = append(names, host)
		}
		return r
	}
	for _, c := range cols {
		switch c.series {
		case "mbuf.in_use":
			get(c.host).inUse = c.last()
		case "mbuf.high_water":
			get(c.host).highWater = c.last()
		case "tcp.acked_bytes":
			r := get(c.host)
			r.conns[c.labels] = true
			r.acked += c.last()
		case "tcp.retransmits":
			get(c.host).rexmits += c.last()
		}
	}
	if len(names) == 0 {
		return
	}
	fmt.Fprintln(w, "HOSTS")
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  host\tmbuf in-use\tmbuf high-water\tflows\tacked bytes\trexmits")
	for _, h := range names {
		r := rows[h]
		fmt.Fprintf(tw, "  %s\t%d\t%d\t%d\t%d\t%d\n", h, r.inUse, r.highWater, len(r.conns), r.acked, r.rexmits)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// renderFlows prints one row per TCP connection — last windows, progress,
// RTT estimator — plus a bytes-in-flight sparkline.
func renderFlows(w io.Writer, cols []*column, width int) {
	type flow struct {
		host, conn string
		m          map[string]*column
	}
	flows := map[string]*flow{}
	order := []string{}
	for _, c := range cols {
		if !strings.HasPrefix(c.series, "tcp.") || !strings.HasPrefix(c.labels, "conn=") {
			continue
		}
		k := c.host + "\x00" + c.labels
		f, ok := flows[k]
		if !ok {
			f = &flow{host: c.host, conn: strings.TrimPrefix(c.labels, "conn="), m: map[string]*column{}}
			flows[k] = f
			order = append(order, k)
		}
		f.m[c.series] = c
	}
	if len(order) == 0 {
		return
	}
	fmt.Fprintln(w, "FLOWS")
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  host\tconn\tcwnd\tin-flight\tacked\tsrtt (µs)\trto (µs)\trexmits\tin-flight timeline")
	last := func(f *flow, s string) int64 {
		if c, ok := f.m[s]; ok {
			return c.last()
		}
		return 0
	}
	for _, k := range order {
		f := flows[k]
		line := ""
		if c, ok := f.m["tcp.bytes_in_flight"]; ok {
			line = sparkline(c.pts, width)
		}
		fmt.Fprintf(tw, "  %s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n",
			f.host, f.conn,
			last(f, "tcp.cwnd"), last(f, "tcp.bytes_in_flight"), last(f, "tcp.acked_bytes"),
			last(f, "tcp.srtt_ns")/1000, last(f, "tcp.rto_ns")/1000, last(f, "tcp.retransmits"),
			line)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// renderTimelines prints a sparkline per whole-system series (everything
// not tied to one TCP connection), with its last value.
func renderTimelines(w io.Writer, cols []*column, width int) {
	any := false
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	for _, c := range cols {
		if strings.HasPrefix(c.series, "tcp.") && strings.HasPrefix(c.labels, "conn=") {
			continue
		}
		if !any {
			fmt.Fprintln(w, "TIMELINES")
			any = true
		}
		name := c.series
		if c.labels != "" {
			name += "{" + c.labels + "}"
		}
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%d\n", c.host, name, sparkline(c.pts, width), c.last())
	}
	if any {
		tw.Flush()
	}
}

// sparkRunes are the eight block heights of a sparkline cell.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline buckets the points into width cells by timestamp and draws each
// bucket's maximum, scaled against the whole series' range. A flat series
// renders as a flat low line; an empty one as spaces.
func sparkline(pts []telemetry.JSONLPoint, width int) string {
	if len(pts) == 0 || width <= 0 {
		return ""
	}
	lo, hi := pts[0].At, pts[len(pts)-1].At
	var vmax int64
	for _, p := range pts {
		if p.V > vmax {
			vmax = p.V
		}
	}
	cells := make([]int64, width)
	filled := make([]bool, width)
	span := hi - lo
	for _, p := range pts {
		i := 0
		if span > 0 {
			i = int(int64(p.At-lo) * int64(width-1) / int64(span))
		}
		if !filled[i] || p.V > cells[i] {
			cells[i], filled[i] = p.V, true
		}
	}
	var sb strings.Builder
	for i := range cells {
		switch {
		case !filled[i]:
			sb.WriteRune(' ')
		case vmax == 0:
			sb.WriteRune(sparkRunes[0])
		default:
			idx := int(cells[i] * int64(len(sparkRunes)-1) / vmax)
			sb.WriteRune(sparkRunes[idx])
		}
	}
	return sb.String()
}

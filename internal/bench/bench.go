// Package bench regenerates every table and figure of the paper's evaluation
// (§4 and §5) plus the ablations DESIGN.md calls out. Each experiment returns
// structured rows so that both cmd/plexus-bench and the repository's
// testing.B benchmarks print the same series the paper reports.
package bench

import (
	"fmt"

	"plexus/internal/ether"
	"plexus/internal/event"
	"plexus/internal/forward"
	"plexus/internal/httpx"
	"plexus/internal/mbuf"
	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/video"
	"plexus/internal/view"
)

// System names a measured configuration.
type System string

// The systems of Figure 5.
const (
	SysPlexusInterrupt System = "Plexus (interrupt)"
	SysPlexusThread    System = "Plexus (thread)"
	SysDUX             System = "DIGITAL UNIX"
	SysDriverMin       System = "device drivers only"
)

// Devices returns the three network models of the paper's testbed.
func Devices() []netdev.Model {
	return []netdev.Model{netdev.EthernetModel(), netdev.ForeATMModel(), netdev.DECT3Model()}
}

func hostSpec(name string, sys System) plexus.HostSpec {
	switch sys {
	case SysPlexusInterrupt, SysDriverMin:
		return plexus.HostSpec{Name: name, Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt}
	case SysPlexusThread:
		return plexus.HostSpec{Name: name, Personality: osmodel.SPIN, Dispatch: osmodel.DispatchThread}
	default:
		return plexus.HostSpec{Name: name, Personality: osmodel.Monolithic}
	}
}

// twoHosts is the paper's two-machine testbed with both hosts running sys.
func twoHosts(model netdev.Model, sys System) (*plexus.Network, *plexus.Stack, *plexus.Stack, error) {
	return plexus.TwoHosts(1, model, hostSpec("client", sys), hostSpec("server", sys))
}

// mean is the average of samples.
func mean(samples []sim.Time) sim.Time {
	var total sim.Time
	for _, r := range samples {
		total += r
	}
	return total / sim.Time(len(samples))
}

// postWarmup pairs the send and receive times of a ping-pong into the rounds
// round trips that follow the first (warm-up) one.
func postWarmup(starts, ends []sim.Time, rounds int) ([]sim.Time, error) {
	if len(ends) < rounds+1 {
		return nil, fmt.Errorf("bench: only %d rounds completed", len(ends))
	}
	rtts := make([]sim.Time, rounds)
	for i := 1; i <= rounds; i++ {
		rtts[i-1] = ends[i] - starts[i]
	}
	return rtts, nil
}

// bulkRx is what a bulk-transfer receiver got, and when.
type bulkRx struct {
	got         int
	first, last sim.Time
}

// mbps is the receiver-observed goodput over the delivery window.
func (rx *bulkRx) mbps() float64 {
	if rx.got == 0 || rx.last <= rx.first {
		return 0
	}
	return float64(rx.got) * 8 / (rx.last - rx.first).Seconds() / 1e6
}

// startBulk listens on server port 5001 and spawns a client that connects,
// sends size bytes and closes; the receiver tallies what arrives.
func startBulk(client, server *plexus.Stack, size int) (*bulkRx, error) {
	rx := &bulkRx{}
	_, err := server.ListenTCP(5001, plexus.TCPAppOptions{
		OnRecv: func(t *sim.Task, conn *plexus.TCPApp, data []byte) {
			if rx.got == 0 {
				rx.first = t.Now()
			}
			rx.got += len(data)
			rx.last = t.Now()
		},
		OnPeerFin: func(t *sim.Task, conn *plexus.TCPApp) { conn.Close(t) },
	}, nil)
	if err != nil {
		return nil, err
	}
	msg := make([]byte, size)
	client.Spawn("sender", func(t *sim.Task) {
		_, _ = client.ConnectTCP(t, server.Addr(), 5001, plexus.TCPAppOptions{
			OnEstablished: func(t2 *sim.Task, conn *plexus.TCPApp) {
				_ = conn.Send(t2, msg)
				conn.Close(t2)
			},
		})
	})
	return rx, nil
}

// serveHTTP answers every request on server port 80 with a 1KB page.
func serveHTTP(server *plexus.Stack) error {
	_, err := httpx.Serve(server, 80, func(t *sim.Task, req *httpx.Request) httpx.Response {
		return httpx.Response{Status: 200, Body: make([]byte, 1024)}
	})
	return err
}

// getsAt spawns n GETs of the server's page from client, the i'th at
// first + i·gap, and tallies those that complete with 200.
func getsAt(client, server *plexus.Stack, n int, first, gap sim.Time) *tally {
	done := &tally{}
	for i := 0; i < n; i++ {
		client.SpawnAt(first+sim.Time(i)*gap, "get", func(t *sim.Task) {
			_ = httpx.Get(t, client, server.Addr(), 80, "/", func(t2 *sim.Task, r httpx.Result, err error) {
				if err == nil && r.Status == 200 {
					done.ops++
					done.rtts = append(done.rtts, r.Latency)
				}
			})
		})
	}
	return done
}

// ---------------------------------------------------------------------------
// Figure 5: UDP round-trip latency for small (8-byte) packets.

// Fig5Row is one bar of Figure 5. RTT is the mean; the percentile columns
// come from the fixed-bucket histogram plane over the same rounds.
type Fig5Row struct {
	Device string
	System System
	RTT    sim.Time
	P50    sim.Time
	P90    sim.Time
	P99    sim.Time
}

// UDPEchoRTT measures one application-to-application UDP round trip of
// payload bytes on the given device and system, averaged over rounds
// ping-pongs (steady-state: ARP primed, first round discarded).
func UDPEchoRTT(model netdev.Model, sys System, payload, rounds int) (sim.Time, error) {
	rtts, _, err := udpEchoRTTs(model, sys, payload, rounds, nil)
	if err != nil {
		return 0, err
	}
	return mean(rtts), nil
}

// driverEchoRTTs measures round trips with a raw echo handler installed
// directly on Ethernet.PacketRecv — no protocol layers, the paper's "minimal
// round trip time ... as measured between the device drivers" — returning
// every post-warm-up sample.
func driverEchoRTTs(model netdev.Model, payload, rounds int) ([]sim.Time, error) {
	n, client, server, err := twoHosts(model, SysDriverMin)
	if err != nil {
		return nil, err
	}
	defer recordEvents(n.Sim)
	const rawType = 0x88B6
	frame := make([]byte, payload)

	// Server: reflect every raw frame back to its source.
	_, err = server.Ether.InstallRecv(ether.TypeGuard(rawType),
		event.Ephemeral("raw-echo", func(t *sim.Task, m *mbuf.Mbuf) {
			defer m.Free()
			data, err := m.CopyData(0, m.PktLen())
			if err != nil || len(data) < view.EthernetHdrLen {
				return
			}
			eth, _ := view.Ethernet(data)
			reply := server.Host.Pool.FromBytes(data[view.EthernetHdrLen:], 32)
			_ = server.Ether.Send(t, eth.Src(), rawType, reply)
		}), 0)
	if err != nil {
		return nil, err
	}
	var starts, ends []sim.Time
	var send func(t *sim.Task)
	send = func(t *sim.Task) {
		starts = append(starts, t.Now())
		m := client.Host.Pool.FromBytes(frame, 32)
		_ = client.Ether.Send(t, server.NIC.MAC(), rawType, m)
	}
	_, err = client.Ether.InstallRecv(ether.TypeGuard(rawType),
		event.Ephemeral("raw-echo-client", func(t *sim.Task, m *mbuf.Mbuf) {
			m.Free()
			ends = append(ends, t.Now())
			if len(ends) < rounds+1 {
				send(t)
			}
		}), 0)
	if err != nil {
		return nil, err
	}
	client.Spawn("client", send)
	n.Sim.RunUntil(60 * sim.Second)
	return postWarmup(starts, ends, rounds)
}

// DriverEchoRTT is driverEchoRTTs reduced to its mean.
func DriverEchoRTT(model netdev.Model, payload, rounds int) (sim.Time, error) {
	rtts, err := driverEchoRTTs(model, payload, rounds)
	if err != nil {
		return 0, err
	}
	return mean(rtts), nil
}

// Fig5 regenerates Figure 5 (and the §1/§4.1 headline numbers). fastDriver
// selects the paper's "faster device driver" variant. Each bar is an
// independent cell fanned out over RunCells; row order is fixed regardless
// of parallelism.
func Fig5(fastDriver bool) ([]Fig5Row, error) {
	const rounds = 8
	type cell struct {
		model  netdev.Model
		sys    System
		driver bool
	}
	var cells []cell
	for _, model := range Devices() {
		if fastDriver {
			if model.Name == "dec-t3" {
				continue // "We did not write a faster device driver for T3."
			}
			model = netdev.FastDriver(model)
		}
		for _, sys := range []System{SysPlexusInterrupt, SysPlexusThread, SysDUX} {
			cells = append(cells, cell{model: model, sys: sys})
		}
		cells = append(cells, cell{model: model, sys: SysDriverMin, driver: true})
	}
	return RunCells(cells, func(c cell) (Fig5Row, error) {
		var rtts []sim.Time
		var err error
		if c.driver {
			rtts, err = driverEchoRTTs(c.model, 8, rounds)
		} else {
			rtts, _, err = udpEchoRTTs(c.model, c.sys, 8, rounds, nil)
		}
		if err != nil {
			kind := string(c.sys)
			if c.driver {
				kind = "driver"
			}
			return Fig5Row{}, fmt.Errorf("fig5 %s/%s: %w", c.model.Name, kind, err)
		}
		s := summarize(rtts)
		return Fig5Row{Device: c.model.Name, System: c.sys,
			RTT: s.Mean, P50: s.P50, P90: s.P90, P99: s.P99}, nil
	})
}

// ---------------------------------------------------------------------------
// §4.2 throughput table.

// TputRow is one entry of the §4.2 throughput comparison.
type TputRow struct {
	Device string
	System System
	Mbps   float64
}

// TCPThroughput measures a one-way bulk transfer of size bytes.
func TCPThroughput(model netdev.Model, sys System, size int) (float64, error) {
	n, client, server, err := twoHosts(model, sys)
	if err != nil {
		return 0, err
	}
	defer recordEvents(n.Sim)
	rx, err := startBulk(client, server, size)
	if err != nil {
		return 0, err
	}
	n.Sim.RunUntil(10 * 60 * sim.Second)
	if rx.got != size || rx.last <= rx.first {
		return 0, fmt.Errorf("bench: transfer incomplete: %d/%d bytes", rx.got, size)
	}
	return rx.mbps(), nil
}

// Throughput regenerates the §4.2 numbers: TCP on Ethernet and ATM for both
// systems (the paper could not measure Plexus TCP on T3 due to a DMA bug; we
// can, and report it as an extension).
func Throughput(size int) ([]TputRow, error) {
	type cell struct {
		model netdev.Model
		sys   System
	}
	var cells []cell
	for _, model := range Devices() {
		for _, sys := range []System{SysPlexusInterrupt, SysDUX} {
			cells = append(cells, cell{model: model, sys: sys})
		}
	}
	return RunCells(cells, func(c cell) (TputRow, error) {
		mbps, err := TCPThroughput(c.model, c.sys, size)
		if err != nil {
			return TputRow{}, fmt.Errorf("throughput %s/%s: %w", c.model.Name, c.sys, err)
		}
		return TputRow{Device: c.model.Name, System: c.sys, Mbps: mbps}, nil
	})
}

// ---------------------------------------------------------------------------
// Figure 6: video-server CPU utilization vs number of client streams.

// Fig6Row is one x-position of Figure 6.
type Fig6Row struct {
	Streams     int
	Utilization map[System]float64
	// GoodputMbps is the client-observed delivery rate (SPIN server),
	// showing network saturation at ~15 streams.
	GoodputMbps float64
}

// videoRun serves streams multicast video streams from a sys server to one
// SPIN client over a T3 for duration. It returns the server's and the
// client's CPU utilization over the run and the client's goodput in Mb/s;
// ilp turns on the client's integrated layer processing.
func videoRun(sys System, streams int, ilp bool, duration sim.Time) (server, client, goodput float64, err error) {
	n, err := plexus.NewNetwork(1, netdev.DECT3Model(), []plexus.HostSpec{
		hostSpec("server", sys),
		{Name: "client", Personality: osmodel.SPIN},
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer recordEvents(n.Sim)
	n.PrimeARP()
	sv, cl := n.Hosts[0], n.Hosts[1]
	srv, err := video.NewServer(sv, video.ServerConfig{})
	if err != nil {
		return 0, 0, 0, err
	}
	vc, err := video.NewClient(cl, video.DefaultPort)
	if err != nil {
		return 0, 0, 0, err
	}
	vc.ILP = ilp
	for i := 0; i < streams; i++ {
		srv.AddStream(view.IP4{224, 0, 1, byte(i + 1)})
	}
	srv.Run(duration)
	n.Sim.RunUntil(duration)
	goodput = float64(vc.Stats().BytesDisplayed) * 8 / duration.Seconds() / 1e6
	return sv.Host.CPU.Utilization(), cl.Host.CPU.Utilization(), goodput, nil
}

// Fig6 regenerates Figure 6 for the given stream counts. Each (streams,
// system) pair is one cell; the per-streams rows are assembled from the
// ordered cell results afterwards.
func Fig6(streamCounts []int) ([]Fig6Row, error) {
	const duration = 2 * sim.Second
	systems := []System{SysPlexusInterrupt, SysDUX}
	type cell struct {
		streams int
		sys     System
	}
	type result struct {
		util    float64
		goodput float64
	}
	var cells []cell
	for _, s := range streamCounts {
		for _, sys := range systems {
			cells = append(cells, cell{streams: s, sys: sys})
		}
	}
	results, err := RunCells(cells, func(c cell) (result, error) {
		u, _, gp, err := videoRun(c.sys, c.streams, false, duration)
		if err != nil {
			return result{}, fmt.Errorf("fig6 %s/%d: %w", c.sys, c.streams, err)
		}
		return result{util: u, goodput: gp}, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig6Row
	for i, s := range streamCounts {
		row := Fig6Row{Streams: s, Utilization: map[System]float64{}}
		for j, sys := range systems {
			r := results[i*len(systems)+j]
			row.Utilization[sys] = r.util
			if sys == SysPlexusInterrupt {
				row.GoodputMbps = r.goodput
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 7: TCP redirection latency, in-kernel node vs user-level splice.

// Fig7Row is one x-position of Figure 7.
type Fig7Row struct {
	PayloadBytes  int
	KernelLatency sim.Time
	SpliceLatency sim.Time
}

// forwardLatency measures request→reply latency through a forwarder.
func forwardLatency(kernel bool, payload int) (sim.Time, error) {
	fwdP := osmodel.Monolithic
	if kernel {
		fwdP = osmodel.SPIN
	}
	n, err := plexus.NewNetwork(1, netdev.EthernetModel(), []plexus.HostSpec{
		{Name: "client", Personality: osmodel.SPIN},
		{Name: "fwd", Personality: fwdP},
		{Name: "server", Personality: osmodel.SPIN},
	})
	if err != nil {
		return 0, err
	}
	defer recordEvents(n.Sim)
	n.PrimeARP()
	client, fwd, server := n.Hosts[0], n.Hosts[1], n.Hosts[2]
	_, err = server.ListenTCP(9000, plexus.TCPAppOptions{
		OnRecv: func(t *sim.Task, conn *plexus.TCPApp, data []byte) {
			_ = conn.Send(t, data) // echo
		},
		OnPeerFin: func(t *sim.Task, conn *plexus.TCPApp) { conn.Close(t) },
	}, nil)
	if err != nil {
		return 0, err
	}
	if kernel {
		if _, err := forward.NewKernel(fwd, view.IPProtoTCP, 8000, server.Addr(), 9000); err != nil {
			return 0, err
		}
	} else {
		if _, err := forward.NewSplice(fwd, 8000, server.Addr(), 9000); err != nil {
			return 0, err
		}
	}
	req := make([]byte, payload)
	var sentAt, gotAt sim.Time
	var rcvd int
	client.Spawn("client", func(t *sim.Task) {
		_, _ = client.ConnectTCP(t, fwd.Addr(), 8000, plexus.TCPAppOptions{
			OnEstablished: func(t2 *sim.Task, conn *plexus.TCPApp) {
				sentAt = t2.Now()
				_ = conn.Send(t2, req)
			},
			OnRecv: func(t2 *sim.Task, conn *plexus.TCPApp, data []byte) {
				rcvd += len(data)
				if rcvd >= payload {
					gotAt = t2.Now()
					conn.Close(t2)
				}
			},
		})
	})
	n.Sim.RunUntil(5 * 60 * sim.Second)
	if gotAt == 0 {
		return 0, fmt.Errorf("bench: no reply through forwarder")
	}
	return gotAt - sentAt, nil
}

// Fig7 regenerates Figure 7 for the given request payload sizes. Each
// (size, forwarder-kind) pair is one cell; rows pair the ordered results.
func Fig7(sizes []int) ([]Fig7Row, error) {
	type cell struct {
		size   int
		kernel bool
	}
	var cells []cell
	for _, size := range sizes {
		cells = append(cells, cell{size: size, kernel: true}, cell{size: size, kernel: false})
	}
	results, err := RunCells(cells, func(c cell) (sim.Time, error) {
		lat, err := forwardLatency(c.kernel, c.size)
		if err != nil {
			kind := "splice"
			if c.kernel {
				kind = "kernel"
			}
			return 0, fmt.Errorf("fig7 %s/%d: %w", kind, c.size, err)
		}
		return lat, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig7Row
	for i, size := range sizes {
		rows = append(rows, Fig7Row{PayloadBytes: size, KernelLatency: results[2*i], SpliceLatency: results[2*i+1]})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// The paper's concluding demo: the protocol stack servicing HTTP requests.

// HTTPRow is one measured HTTP configuration.
type HTTPRow struct {
	System  System
	Latency sim.Time // mean GET→complete-response latency
}

// HTTPLatency measures the mean latency of n sequential HTTP/1.0 GETs
// against a server running as a SPIN extension or a monolithic user process.
func HTTPLatency(sys System, n int) (sim.Time, error) {
	net, client, server, err := plexus.TwoHosts(1, netdev.EthernetModel(),
		hostSpec("client", SysPlexusInterrupt), hostSpec("server", sys))
	if err != nil {
		return 0, err
	}
	defer recordEvents(net.Sim)
	if err := serveHTTP(server); err != nil {
		return 0, err
	}
	gets := getsAt(client, server, n, 0, 20*sim.Millisecond)
	net.Sim.RunUntil(10 * 60 * sim.Second)
	if len(gets.rtts) != n {
		return 0, fmt.Errorf("bench: %d of %d HTTP requests completed", len(gets.rtts), n)
	}
	return mean(gets.rtts), nil
}

// HTTP regenerates the concluding-demo comparison.
func HTTP(n int) ([]HTTPRow, error) {
	return RunCells([]System{SysPlexusInterrupt, SysDUX}, func(sys System) (HTTPRow, error) {
		lat, err := HTTPLatency(sys, n)
		if err != nil {
			return HTTPRow{}, err
		}
		return HTTPRow{System: sys, Latency: lat}, nil
	})
}

// Package probe times each layer from outside: tight loops over a layer's
// public functions, with inputs shaped like the workloads (32 B, 1460 B and
// 4430 B packets; 1, 8 and 64 guards; 16 and 4096 pending events), and
// two-host slices that cut the stack at the Ethernet, UDP and TCP
// boundaries. Every probe reports wall nanoseconds and heap allocations per
// call. Nothing here is read by the program under test.
package probe

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"plexus/benchmark/trace"
	"plexus/benchmark/workload"
	"plexus/internal/audit"
	"plexus/internal/ether"
	"plexus/internal/event"
	"plexus/internal/fabric"
	"plexus/internal/filter"
	"plexus/internal/httpx"
	"plexus/internal/mbuf"
	"plexus/internal/netdev"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/stats"
	"plexus/internal/tcp"
	"plexus/internal/view"
)

// Result is one probe's outcome. Name is the per-layer metric the timing is
// reported as.
type Result struct {
	Name   string
	Ns     float64 // wall ns per call, best of the batches
	Allocs float64 // heap allocations per call
}

// batches per probe; the fastest is reported, as the one least disturbed.
const batches = 3

// probe is a loop body run n times per batch. Set-up happens in prepare,
// outside the timing.
type probe struct {
	name    string
	calls   int
	prepare func() func(n int)
}

// sinks keep results alive so the compiler cannot drop the probed calls.
var (
	sinkU16   uint16
	sinkBool  bool
	sinkBytes []byte
)

// inTask runs fn as one task body on a fresh simulated CPU: the layers below
// charge simulated time to a *sim.Task, which only a CPU hands out.
func inTask(fn func(t *sim.Task)) {
	s := sim.New(1)
	sim.NewCPU(s, "probe").Submit(sim.PrioKernel, "probe", fn)
	s.Run()
}

func nop() {}

// schedFire keeps depth events pending and times scheduling one plus firing
// one: the heap push and pop the simulator does per event.
func schedFire(depth int) func() func(n int) {
	return func() func(n int) {
		s := sim.New(1)
		for i := 0; i < depth; i++ {
			s.After(sim.Time(i+1)*sim.Microsecond, "pending", nop)
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				s.After(sim.Time(depth)*sim.Microsecond, "probe", nop)
				s.Step()
			}
		}
	}
}

func packet(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

func checksum(n int) func() func(int) {
	return func() func(int) {
		b := packet(n)
		return func(n int) {
			for i := 0; i < n; i++ {
				sinkU16 += view.Checksum(b)
			}
		}
	}
}

// udpFrame builds an Ethernet+IPv4+UDP frame with payload bytes of payload.
func udpFrame(src, dst view.IP4, sport, dport uint16, payload int) []byte {
	b := make([]byte, view.EthernetHdrLen+view.IPv4MinHdrLen+view.UDPHdrLen+payload)
	eth, _ := view.Ethernet(b)
	eth.SetEtherType(0x0800)
	ipb := b[view.EthernetHdrLen:]
	ipb[0] = 0x45
	ip, _ := view.IPv4(ipb[:view.IPv4MinHdrLen])
	ip.SetTotalLen(len(ipb))
	ip.SetTTL(64)
	ip.SetProto(view.IPProtoUDP)
	ip.SetSrc(src)
	ip.SetDst(dst)
	ip.ComputeChecksum()
	u, _ := view.UDP(ipb[view.IPv4MinHdrLen:])
	u.SetSrcPort(sport)
	u.SetDstPort(dport)
	u.SetLength(view.UDPHdrLen + payload)
	return b
}

// raise times one raise through n guarded bindings of which the last matches.
func raise(guards int) func() func(int) {
	return func() func(int) {
		d := event.NewDispatcher(event.DefaultCosts())
		d.MustDeclare("Probe.Event", event.Options{})
		for i := 0; i < guards; i++ {
			match := i == guards-1
			_, err := d.Install("Probe.Event", func(*sim.Task, *mbuf.Mbuf) bool { return match },
				event.Ephemeral("h", func(*sim.Task, *mbuf.Mbuf) {}), 0)
			if err != nil {
				panic(err)
			}
		}
		ref := d.Ref("Probe.Event")
		pool := mbuf.NewPool()
		m := pool.FromBytes(packet(64), 0)
		return func(n int) {
			inTask(func(t *sim.Task) {
				for i := 0; i < n; i++ {
					ref.Raise(t, m)
				}
			})
		}
	}
}

// rawEcho bounces raw Ethernet frames between two hosts: the slice netdev +
// ether + event + mbuf, with no protocol above. One call is one packet.
func rawEcho(switched bool) func() func(int) {
	return func() func(int) {
		return func(n int) {
			var a, b *plexus.Stack
			var s *sim.Sim
			if switched {
				top, err := plexus.NewTopology(1, nil, []plexus.SegmentSpec{{Name: "p", Model: netdev.EthernetModel(),
					Switched: true, Subnet: view.IP4{10, 0, 1, 0}, Hosts: []plexus.HostSpec{workload.SpinHost("a"), workload.SpinHost("b")}}})
				if err != nil {
					panic(err)
				}
				top.PrimeARP()
				a, b, s = top.Segments[0].Hosts[0], top.Segments[0].Hosts[1], top.Sim
			} else {
				net, x, y, err := plexus.TwoHosts(1, netdev.EthernetModel(), workload.SpinHost("a"), workload.SpinHost("b"))
				if err != nil {
					panic(err)
				}
				a, b, s = x, y, net.Sim
			}
			const rawType = 0x88B6
			payload := packet(32)
			rounds := 0
			reflect := func(st *plexus.Stack, peer view.MAC, count bool) {
				_, err := st.Ether.InstallRecv(ether.TypeGuard(rawType), event.Ephemeral("raw", func(t *sim.Task, m *mbuf.Mbuf) {
					m.Free()
					if count {
						rounds++
						if rounds*2 >= n {
							return
						}
					}
					_ = st.Ether.Send(t, peer, rawType, st.Host.Pool.FromBytes(payload, 32))
				}), 0)
				if err != nil {
					panic(err)
				}
			}
			reflect(b, a.NIC.MAC(), false)
			reflect(a, b.NIC.MAC(), true)
			a.Spawn("kick", func(t *sim.Task) {
				_ = a.Ether.Send(t, b.NIC.MAC(), rawType, a.Host.Pool.FromBytes(payload, 32))
			})
			s.Run()
		}
	}
}

// udpEcho bounces 32-byte UDP datagrams between two stacks: rawEcho plus ip
// and udp. One call is one packet.
func udpEcho() func(int) {
	return func(n int) {
		net, client, server, err := plexus.TwoHosts(1, netdev.EthernetModel(), workload.SpinHost("client"), workload.SpinHost("server"))
		if err != nil {
			panic(err)
		}
		var echo, capp *plexus.UDPApp
		echo, err = server.OpenUDP(plexus.UDPAppOptions{Port: 7}, func(t *sim.Task, data []byte, src view.IP4, sp uint16) {
			_ = echo.Send(t, src, sp, data)
		})
		if err != nil {
			panic(err)
		}
		msg := packet(32)
		rounds := 0
		capp, err = client.OpenUDP(plexus.UDPAppOptions{}, func(t *sim.Task, data []byte, src view.IP4, sp uint16) {
			rounds++
			if rounds*2 < n {
				_ = capp.Send(t, server.Addr(), 7, msg)
			}
		})
		if err != nil {
			panic(err)
		}
		client.Spawn("kick", func(t *sim.Task) { _ = capp.Send(t, server.Addr(), 7, msg) })
		net.Sim.Run()
	}
}

// tcpStream moves n full-size segments over one established connection: the
// steady-state data path and its ACK clock. One call is one data segment.
func tcpStream() func(int) {
	return func(n int) {
		net, client, server, err := plexus.TwoHosts(1, netdev.DECT3Model(), workload.SpinHost("client"), workload.SpinHost("server"))
		if err != nil {
			panic(err)
		}
		_, err = server.ListenTCP(5001, plexus.TCPAppOptions{
			OnPeerFin: func(t *sim.Task, conn *plexus.TCPApp) { conn.Close(t) }}, nil)
		if err != nil {
			panic(err)
		}
		data := make([]byte, n*client.TCP.MSS())
		client.Spawn("send", func(t *sim.Task) {
			_, _ = client.ConnectTCP(t, server.Addr(), 5001, plexus.TCPAppOptions{
				OnEstablished: func(t2 *sim.Task, conn *plexus.TCPApp) {
					_ = conn.Send(t2, data)
					conn.Close(t2)
				}})
		})
		net.Sim.Run()
	}
}

// tcpChurn opens and closes n connections one after another on one pair of
// hosts, so closed connections pile up in TIME-WAIT as they do under churn.
func tcpChurn() func(int) {
	return func(n int) {
		net, client, server, err := plexus.TwoHosts(1, netdev.EthernetModel(), workload.SpinHost("client"), workload.SpinHost("server"))
		if err != nil {
			panic(err)
		}
		_, err = server.ListenTCP(5001, plexus.TCPAppOptions{
			OnPeerFin: func(t *sim.Task, conn *plexus.TCPApp) { conn.Close(t) }}, nil)
		if err != nil {
			panic(err)
		}
		left := n
		var dial func(t *sim.Task)
		dial = func(t *sim.Task) {
			if left == 0 {
				return
			}
			left--
			_, _ = client.ConnectTCP(t, server.Addr(), 5001, plexus.TCPAppOptions{
				OnEstablished: func(t2 *sim.Task, conn *plexus.TCPApp) { conn.Close(t2) },
				OnPeerFin:     func(t2 *sim.Task, conn *plexus.TCPApp) { dial(t2) },
			})
		}
		client.Spawn("dial", dial)
		net.Sim.RunUntil(50 * sim.Second)
	}
}

// httpGets fetches n 1 KiB bodies one after another.
func httpGets() func(int) {
	return func(n int) {
		net, client, server, err := plexus.TwoHosts(1, netdev.EthernetModel(), workload.SpinHost("client"), workload.SpinHost("server"))
		if err != nil {
			panic(err)
		}
		body := packet(1024)
		if _, err := httpx.Serve(server, 80, func(*sim.Task, *httpx.Request) httpx.Response {
			return httpx.Response{Status: 200, Body: body}
		}); err != nil {
			panic(err)
		}
		left := n
		var get func(t *sim.Task)
		get = func(t *sim.Task) {
			if left == 0 {
				return
			}
			left--
			_ = httpx.Get(t, client, server.Addr(), 80, "/", func(t2 *sim.Task, r httpx.Result, err error) { get(t2) })
		}
		client.Spawn("get", get)
		net.Sim.RunUntil(50 * sim.Second)
	}
}

func probes() []probe {
	vipFrame := udpFrame(view.IP4{10, 0, 1, 5}, view.IP4{10, 0, 9, 9}, 4000, 7, 64)
	const vipMatch = "ip.dst == 10.0.9.9 && udp.dport == 7"
	return []probe{
		{"sim.sched_fire_16_ns", 200000, schedFire(16)},
		{"sim.sched_fire_4096_ns", 200000, schedFire(4096)},
		{"sim.cpu_submit_ns", 100000, func() func(int) {
			s := sim.New(1)
			cpu := sim.NewCPU(s, "probe")
			body := func(*sim.Task, any) {}
			return func(n int) {
				for i := 0; i < n; i++ {
					cpu.SubmitAtArg(s.Now(), sim.PrioKernel, "probe", body, nil)
					s.Run()
				}
			}
		}},
		{"mbuf.get_free_ns", 500000, func() func(int) {
			pool := mbuf.NewPool()
			return func(n int) {
				for i := 0; i < n; i++ {
					pool.GetPkt().Free()
				}
			}
		}},
		{"mbuf.frombytes_1460_ns", 200000, func() func(int) {
			pool, b := mbuf.NewPool(), packet(1460)
			return func(n int) {
				for i := 0; i < n; i++ {
					pool.FromBytes(b, 64).Free()
				}
			}
		}},
		{"mbuf.copydata_1460_ns", 200000, func() func(int) {
			m := mbuf.NewPool().FromBytes(packet(1460), 64)
			return func(n int) {
				for i := 0; i < n; i++ {
					sinkBytes, _ = m.CopyData(0, 1460)
				}
			}
		}},
		{"mbuf.prepend_adj_ns", 500000, func() func(int) {
			m := mbuf.NewPool().FromBytes(packet(1460), 64)
			return func(n int) {
				for i := 0; i < n; i++ {
					m, _ = m.Prepend(view.IPv4MinHdrLen)
					m.Adj(view.IPv4MinHdrLen)
				}
			}
		}},
		{"view.checksum_64_ns", 1000000, checksum(64)},
		{"view.checksum_1460_ns", 200000, checksum(1460)},
		{"view.checksum_4430_ns", 100000, checksum(4430)},
		{"view.parse_eth_ip_tcp_ns", 1000000, func() func(int) {
			b := make([]byte, view.EthernetHdrLen+view.IPv4MinHdrLen+view.TCPMinHdrLen)
			b[view.EthernetHdrLen] = 0x45
			b[view.EthernetHdrLen+2], b[view.EthernetHdrLen+3] = 0, byte(len(b)-view.EthernetHdrLen)
			b[view.EthernetHdrLen+view.IPv4MinHdrLen+12] = 5 << 4
			return func(n int) {
				for i := 0; i < n; i++ {
					eth, err := view.Ethernet(b)
					ip, err2 := view.IPv4(b[view.EthernetHdrLen:])
					tc, err3 := view.TCP(b[view.EthernetHdrLen+view.IPv4MinHdrLen:])
					if err != nil || err2 != nil || err3 != nil {
						panic(fmt.Sprint("probe: header parse: ", err, err2, err3))
					}
					sinkU16 += eth.EtherType() + uint16(ip.TTL()) + tc.DstPort()
				}
			}
		}},
		{"ether.driver_echo_ns_per_pkt", 4000, rawEcho(false)},
		{"netdev.switched_echo_ns_per_pkt", 4000, rawEcho(true)},
		{"event.raise_1_ns", 200000, raise(1)},
		{"event.raise_8_ns", 100000, raise(8)},
		{"event.raise_64_ns", 20000, raise(64)},
		{"event.install_uninstall_ns", 100000, func() func(int) {
			d := event.NewDispatcher(event.DefaultCosts())
			d.MustDeclare("Probe.Event", event.Options{})
			h := event.Ephemeral("h", func(*sim.Task, *mbuf.Mbuf) {})
			return func(n int) {
				for i := 0; i < n; i++ {
					b, err := d.Install("Probe.Event", nil, h, 0)
					if err != nil {
						panic(err)
					}
					d.Uninstall(b)
				}
			}
		}},
		{"filter.match_native_ns", 1000000, func() func(int) {
			f, err := filter.Parse(vipMatch, filter.BaseIP)
			if err != nil {
				panic(err)
			}
			dgram := vipFrame[view.EthernetHdrLen:]
			return func(n int) {
				for i := 0; i < n; i++ {
					sinkBool = f.MatchBytes(dgram)
				}
			}
		}},
		{"filter.run_vm_ns", 500000, func() func(int) {
			prog, err := filter.CompileInterpreted(vipMatch, filter.BaseIP)
			if err != nil {
				panic(err)
			}
			dgram := vipFrame[view.EthernetHdrLen:]
			return func(n int) {
				for i := 0; i < n; i++ {
					sinkBool = prog.RunBytes(nil, dgram)
				}
			}
		}},
		{"udp.echo_ns_per_pkt", 4000, func() func(int) { return udpEcho() }},
		{"tcp.seg_ack_ns_per_seg", 2000, func() func(int) { return tcpStream() }},
		{"tcp.connect_close_ns", 100, func() func(int) { return tcpChurn() }},
		{"fabric.process_frame_ns", 200000, func() func(int) {
			pool := make([]view.IP4, 8)
			for i := range pool {
				pool[i] = view.IP4{10, 0, 2, byte(i + 1)}
			}
			pl, _, _, err := workload.FabricChain(pool)
			if err != nil {
				panic(err)
			}
			dgram := append([]byte(nil), vipFrame[view.EthernetHdrLen:]...)
			scratch := make([]byte, len(dgram))
			return func(n int) {
				inTask(func(t *sim.Task) {
					for i := 0; i < n; i++ {
						copy(scratch, dgram)
						pkt := fabric.Packet{Buf: scratch, Base: filter.BaseIP, Writable: true, OutPort: -1}
						sinkBool = pl.Exec(t, &pkt) == fabric.Drop
					}
				})
			}
		}},
		{"audit.sink_ns", 1000000, func() func(int) {
			ck := audit.NewChecker(nil)
			ev := tcp.Transition{Host: "probe", Old: tcp.StateSynSent, New: tcp.StateEstablished,
				Cause: tcp.Cause{Kind: tcp.CauseSegment, Flags: view.TCPSyn | view.TCPAck}}
			return func(n int) {
				for i := 0; i < n; i++ {
					ck.Transition(ev)
				}
			}
		}},
		{"telemetry.tick_ns", 100000, func() func(int) {
			// The tcp-lossy workload's probe set on an idle three-host
			// segment: what one 1 ms sample costs.
			top, err := plexus.NewTopology(1, nil, []plexus.SegmentSpec{{Name: "p", Model: netdev.EthernetModel(),
				Switched: true, Subnet: view.IP4{10, 0, 1, 0}, Hosts: []plexus.HostSpec{workload.SpinHost("a"), workload.SpinHost("b"), workload.SpinHost("c")}}})
			if err != nil {
				panic(err)
			}
			e := workload.MonitorSegment(top)
			return func(n int) {
				for i := 0; i < n; i++ {
					e.Tick()
				}
			}
		}},
		{"stats.hist_observe_ns", 2000000, func() func(int) {
			var h stats.Histogram
			return func(n int) {
				for i := 0; i < n; i++ {
					h.Observe(int64(i) * 37)
				}
			}
		}},
		{"httpx.get_ns", 100, func() func(int) { return httpGets() }},
	}
}

// Run executes every probe, scaled by size (the smoke test uses a small
// fraction), each batch as a span under root when sink is set.
func Run(size float64, sink *trace.Sink, root uint64) []Result {
	var out []Result
	for _, p := range probes() {
		calls := int(float64(p.calls) * size)
		if calls < 8 {
			calls = 8
		}
		body := p.prepare()
		body(calls/8 + 1) // warm caches, free lists and the heap
		best := Result{Name: p.name}
		for b := 0; b < batches; b++ {
			var span uint64
			if sink != nil {
				span = sink.Begin("probe:"+p.name, root)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			body(calls)
			ns := float64(time.Since(start)) / float64(calls)
			runtime.ReadMemStats(&after)
			if sink != nil {
				sink.End(span)
			}
			if b == 0 || ns < best.Ns {
				best.Ns = ns
			}
			if allocs := float64(after.Mallocs-before.Mallocs) / float64(calls); b == 0 || allocs < best.Allocs {
				best.Allocs = allocs
			}
		}
		out = append(out, best)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

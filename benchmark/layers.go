package main

import (
	"math"

	"plexus/benchmark/probe"
	"plexus/benchmark/trace"
	"plexus/benchmark/workload"
	"plexus/internal/sim"
)

// interp is piecewise-linear interpolation through (xs[i], ys[i]), clamped
// at the ends; xs ascending.
func interp(x float64, xs, ys []float64) float64 {
	if x <= xs[0] {
		return ys[0]
	}
	for i := 1; i < len(xs); i++ {
		if x <= xs[i] {
			f := (x - xs[i-1]) / (xs[i] - xs[i-1])
			return ys[i-1] + f*(ys[i]-ys[i-1])
		}
	}
	return ys[len(ys)-1]
}

// layerValues assembles every per-layer metric: counts from the traced
// repetition's accessors (C), sums from the sink (H), probe timings (P), and
// the ledger that multiplies the first by the last.
func layerValues(reps []*workload.Result, traced *workload.Result, sink *trace.Sink, probes []probe.Result) map[string]float64 {
	v := map[string]float64{}
	c := traced.Counters
	for _, m := range perLayer {
		if x, ok := c[m.Name]; ok {
			v[m.Name] = x
		}
	}
	for k, x := range traced.HostCounters {
		v[k] = x
	}
	ops := float64(traced.Ops())

	// Host clock, untraced: the base for overhead and the ledger.
	var rate, cpuNs, evRate []float64
	for _, r := range reps {
		rate = append(rate, float64(r.Ops())/(float64(r.Host.WallNs)/1e9))
		cpuNs = append(cpuNs, float64(r.Host.CPUNs))
		evRate = append(evRate, r.Counters["sim.events"]/(float64(r.Host.WallNs)/1e9))
	}
	v["sim.events_per_wall_s"] = median(evRate)
	tracedRate := ops / (float64(traced.Host.WallNs) / 1e9)
	v["trace.overhead_pct"] = (1 - tracedRate/median(rate)) * 100
	v["trace.hops"] = float64(sink.Hops())
	v["trace.spans_dropped"] = float64(sink.Dropped())

	// Sink sums.
	v["sim.runq_depth_p99"] = float64(sink.RunQueueP99())
	for name, l := range map[string]trace.Layer{"netdev": trace.LayerNetdev, "ether": trace.LayerEther,
		"ip": trace.LayerIP, "udp": trace.LayerUDP, "tcp": trace.LayerTCP} {
		v[name+".sim_us_per_pkt"] = sink.LayerSimPerPkt(l).Micros()
	}
	evals := float64(sink.GuardEvals())
	if raises := c["event.raises"]; raises > 0 {
		v["event.guard_evals_per_raise"] = evals / raises
	}
	if evals > 0 {
		v["event.guard_reject_ratio"] = math.Max(0, evals-c["event.invocations"]) / evals
	}
	// The simulated-CPU split is per server op; paper-suite's server is the
	// rebuilt Figure 5 echo, so its denominator is echo rounds.
	cpuOps := ops
	if r := c["paper.echo_rounds"]; r > 0 {
		cpuOps = r
	}
	leaf := map[string]sim.ProfKind{"trap": sim.ProfTrap, "copy": sim.ProfCopy, "checksum": sim.ProfChecksum,
		"dispatch": sim.ProfDispatch, "driver": sim.ProfDriver, "proto": sim.ProfProto, "fabric": sim.ProfFabric}
	var attributed sim.Time
	for name, kind := range leaf {
		t, _ := sink.Prof(kind, traced.Servers)
		attributed += t
		v["osmodel."+name+"_sim_us_per_op"] = t.Micros() / cpuOps
	}
	handler, _ := sink.Prof(sim.ProfHandler, traced.Servers)
	v["osmodel.handler_sim_us_per_op"] = handler.Micros() / cpuOps
	task, _ := sink.Prof(sim.ProfTask, traced.Servers)
	v["osmodel.other_sim_us_per_op"] = (task - attributed).Micros() / cpuOps
	if c["paper.echo_rounds"] > 0 {
		dux := []string{workload.DuxServer}
		for name, kind := range map[string]sim.ProfKind{"trap": sim.ProfTrap, "copy": sim.ProfCopy, "dispatch": sim.ProfDispatch} {
			t, _ := sink.Prof(kind, dux)
			v["osmodel.dux_"+name+"_sim_us_per_op"] = t.Micros() / cpuOps
		}
	}

	// Rule evaluations are not counted anywhere public, but each is charged
	// a fixed simulated cost: the gateway's fabric time, less its actions,
	// over the per-rule match cost.
	if mc := c["fabric.match_cost_ns"]; mc > 0 && traced.Gateway != "" {
		t, _ := sink.Prof(sim.ProfFabric, []string{traced.Gateway})
		v["fabric.rule_evals"] = math.Max(0, float64(t)-c["fabric.rule_hits"]*c["fabric.action_cost_ns"]) / mc
	}

	// Probes.
	p := map[string]probe.Result{}
	for _, r := range probes {
		p[r.Name] = r
		v[r.Name] = r.Ns
	}
	v["sim.sched_fire_allocs"] = p["sim.sched_fire_16_ns"].Allocs
	v["mbuf.copydata_allocs"] = p["mbuf.copydata_1460_ns"].Allocs
	v["event.raise_allocs"] = p["event.raise_8_ns"].Allocs
	v["fabric.process_frame_allocs"] = p["fabric.process_frame_ns"].Allocs
	// A frame through one switch costs the switched raw echo over the direct
	// one: the NIC, driver and ether work is the same on both.
	v["netdev.switch_fwd_ns"] = math.Max(0, v["netdev.switched_echo_ns_per_pkt"]-v["ether.driver_echo_ns_per_pkt"])

	ledger(v, reps[0].Counters, median(cpuNs))
	return v
}

// ledger is a model, not a measurement: counted calls times probe cost, as a
// share of the untraced window's CPU time. It says which layer could save
// how much on this workload before any code is written. c holds an untraced
// repetition's counts, so observability is charged only where the workload
// itself turns it on.
func ledger(v, c map[string]float64, cpuNs float64) {
	share := func(ns float64) float64 { return ns / cpuNs }
	// Scheduling: per event, at the heap depth the run actually held.
	depth := math.Max(1, c["sim.pending_mean"])
	fire := interp(math.Log2(depth), []float64{4, 12}, []float64{v["sim.sched_fire_16_ns"], v["sim.sched_fire_4096_ns"]})
	v["ledger.sim_share"] = share(c["sim.events"] * fire)
	// Buffers: one get/free per mbuf handed out, three header
	// prepend/trim pairs per packet through the stack.
	v["ledger.mbuf_share"] = share(c["mbuf.gets"]*v["mbuf.get_free_ns"] + 3*c["ip.pkts"]*v["mbuf.prepend_adj_ns"])
	// Headers and checksums: one parse and one transport checksum over the
	// mean frame per IP packet sent or received.
	frame := 64.0
	if c["netdev.tx_frames"] > 0 {
		frame = c["netdev.tx_bytes"] / c["netdev.tx_frames"]
	}
	sum := interp(frame, []float64{64, 1460, 4430},
		[]float64{v["view.checksum_64_ns"], v["view.checksum_1460_ns"], v["view.checksum_4430_ns"]})
	v["ledger.view_share"] = share(c["ip.pkts"] * (sum + v["view.parse_eth_ip_tcp_ns"]))
	// Dispatch: per raise, at the guard-chain length the traced run saw.
	raise := interp(math.Max(1, v["event.guard_evals_per_raise"]), []float64{1, 8, 64},
		[]float64{v["event.raise_1_ns"], v["event.raise_8_ns"], v["event.raise_64_ns"]})
	v["ledger.event_share"] = share(c["event.raises"] * raise)
	// Forwarding plane: rule evaluations, from the pipeline's simulated cost.
	ruleEvals := v["fabric.rule_evals"]
	filterNs := ruleEvals * v["filter.match_native_ns"]
	v["ledger.filter_share"] = share(filterNs)
	v["ledger.fabric_share"] = share(math.Max(0, c["fabric.packets"]*v["fabric.process_frame_ns"]-filterNs))
	v["ledger.netdev_share"] = share(c["netdev.switch_frames"] * v["netdev.switch_fwd_ns"])
	v["ledger.observ_share"] = share(c["audit.transitions"]*v["audit.sink_ns"] + c["telemetry.ticks"]*v["telemetry.tick_ns"])
	var known float64
	for _, k := range []string{"sim", "mbuf", "view", "event", "filter", "fabric", "netdev", "observ"} {
		known += v["ledger."+k+"_share"]
	}
	v["ledger.protocols_share"] = 1 - known
}

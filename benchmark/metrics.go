package main

// The metric catalogue: every name the benchmark prints, with its unit and
// direction. BENCHMARK.json repeats the names, units, directions and bounds;
// the smoke test fails if the two drift apart.

// metric declares one reported number.
type metric struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse (per-layer metrics have none).
	Bound float64
}

// endToEnd are the metrics a user of the simulator sees, on two clocks: the
// host's (what a run costs) and the simulated one (what the run reports).
// All ten are defined and non-zero on all six workloads.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_wall_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.01},
	{"alloc_bytes_per_op", "B", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"sim_latency_p50_us", "sim_us", "lower", 0.05},
	{"sim_latency_p99_us", "sim_us", "lower", 0.05},
	{"sim_goodput_mbps", "Mb/sim_s", "higher", 0.25},
	{"sim_cpu_us_per_op", "sim_us", "lower", 0.02},
}

// perLayer are the single-layer numbers, by layer = internal/<module>. Three
// sources: counts read through public accessors (deterministic), sums taken
// by the benchmark's own sim.Metrics sink in the traced repetition, and
// probes timing each layer's public functions.
var perLayer = []metric{
	// Workload-specific end-to-end results that cannot be bounded on every
	// workload (see README): their gate is the oracle.
	{"sim_fairness_jain", "ratio", "higher", 0},
	{"paper_dev_max_pct", "%", "lower", 0},
	{"paper_dev_mean_pct", "%", "lower", 0},

	{"sim.events", "count", "lower", 0},
	{"sim.events_per_op", "count", "lower", 0},
	{"sim.events_per_wall_s", "1/s", "higher", 0},
	{"sim.shard_rounds", "count", "lower", 0},
	{"sim.barrier_wait_share", "ratio", "lower", 0},
	{"sim.runq_depth_p99", "count", "lower", 0},
	{"sim.pending_mean", "count", "lower", 0},
	{"sim.sched_fire_16_ns", "ns", "lower", 0},
	{"sim.sched_fire_4096_ns", "ns", "lower", 0},
	{"sim.sched_fire_allocs", "count", "lower", 0},
	{"sim.cpu_submit_ns", "ns", "lower", 0},

	{"mbuf.gets_per_op", "count", "lower", 0},
	{"mbuf.recycle_ratio", "ratio", "higher", 0},
	{"mbuf.high_water", "count", "lower", 0},
	{"mbuf.leaked", "count", "lower", 0},
	{"mbuf.get_free_ns", "ns", "lower", 0},
	{"mbuf.frombytes_1460_ns", "ns", "lower", 0},
	{"mbuf.copydata_1460_ns", "ns", "lower", 0},
	{"mbuf.copydata_allocs", "count", "lower", 0},
	{"mbuf.prepend_adj_ns", "ns", "lower", 0},

	{"view.checksum_64_ns", "ns", "lower", 0},
	{"view.checksum_1460_ns", "ns", "lower", 0},
	{"view.checksum_4430_ns", "ns", "lower", 0},
	{"view.parse_eth_ip_tcp_ns", "ns", "lower", 0},

	{"netdev.frames_per_op", "count", "lower", 0},
	{"netdev.switch_drops", "count", "lower", 0},
	{"netdev.red_drops", "count", "lower", 0},
	{"netdev.nic_tx_drops", "count", "lower", 0},
	{"netdev.rx_errors", "count", "lower", 0},
	{"netdev.switch_qdepth_max", "count", "lower", 0},
	{"netdev.sim_us_per_pkt", "sim_us", "lower", 0},
	{"netdev.switch_fwd_ns", "ns", "lower", 0},

	{"ether.sim_us_per_pkt", "sim_us", "lower", 0},
	{"ether.driver_echo_ns_per_pkt", "ns", "lower", 0},

	{"event.raises_per_op", "count", "lower", 0},
	{"event.guard_evals_per_raise", "count", "lower", 0},
	{"event.guard_reject_ratio", "ratio", "lower", 0},
	{"event.bindings_end", "count", "lower", 0},
	{"event.faults", "count", "lower", 0},
	{"event.raise_1_ns", "ns", "lower", 0},
	{"event.raise_8_ns", "ns", "lower", 0},
	{"event.raise_64_ns", "ns", "lower", 0},
	{"event.raise_allocs", "count", "lower", 0},
	{"event.install_uninstall_ns", "ns", "lower", 0},

	{"filter.match_native_ns", "ns", "lower", 0},
	{"filter.run_vm_ns", "ns", "lower", 0},

	{"ip.pkts_per_op", "count", "lower", 0},
	{"ip.forwarded", "count", "lower", 0},
	{"ip.drops", "count", "lower", 0},
	{"ip.sim_us_per_pkt", "sim_us", "lower", 0},

	{"udp.delivered_per_op", "count", "lower", 0},
	{"udp.drops", "count", "lower", 0},
	{"udp.sim_us_per_pkt", "sim_us", "lower", 0},
	{"udp.echo_ns_per_pkt", "ns", "lower", 0},

	{"tcp.segs_out_per_op", "count", "lower", 0},
	{"tcp.retx_ratio", "ratio", "lower", 0},
	{"tcp.fast_recoveries", "count", "lower", 0},
	{"tcp.sack_rexmits", "count", "lower", 0},
	{"tcp.rto_expiries", "count", "lower", 0},
	{"tcp.dupacks", "count", "lower", 0},
	{"tcp.delayed_acks", "count", "lower", 0},
	{"tcp.conns_opened", "count", "lower", 0},
	{"tcp.conns_live_end", "count", "lower", 0},
	{"tcp.stale_wnd_updates", "count", "lower", 0},
	{"tcp.sim_us_per_pkt", "sim_us", "lower", 0},
	{"tcp.seg_ack_ns_per_seg", "ns", "lower", 0},
	{"tcp.connect_close_ns", "ns", "lower", 0},

	{"fabric.packets_per_op", "count", "lower", 0},
	{"fabric.drops", "count", "lower", 0},
	{"fabric.faults", "count", "lower", 0},
	{"fabric.nat_occupancy", "count", "lower", 0},
	{"fabric.lb_spread_max_over_mean", "ratio", "lower", 0},
	{"fabric.process_frame_ns", "ns", "lower", 0},
	{"fabric.process_frame_allocs", "count", "lower", 0},

	{"osmodel.trap_sim_us_per_op", "sim_us", "lower", 0},
	{"osmodel.copy_sim_us_per_op", "sim_us", "lower", 0},
	{"osmodel.checksum_sim_us_per_op", "sim_us", "lower", 0},
	{"osmodel.dispatch_sim_us_per_op", "sim_us", "lower", 0},
	{"osmodel.handler_sim_us_per_op", "sim_us", "lower", 0},
	{"osmodel.driver_sim_us_per_op", "sim_us", "lower", 0},
	{"osmodel.proto_sim_us_per_op", "sim_us", "lower", 0},
	{"osmodel.fabric_sim_us_per_op", "sim_us", "lower", 0},
	{"osmodel.other_sim_us_per_op", "sim_us", "lower", 0},
	{"osmodel.dux_trap_sim_us_per_op", "sim_us", "lower", 0},
	{"osmodel.dux_copy_sim_us_per_op", "sim_us", "lower", 0},
	{"osmodel.dux_dispatch_sim_us_per_op", "sim_us", "lower", 0},

	{"audit.transitions", "count", "lower", 0},
	{"audit.violations", "count", "lower", 0},
	{"audit.sink_ns", "ns", "lower", 0},

	{"telemetry.ticks", "count", "lower", 0},
	{"telemetry.alarms", "count", "lower", 0},
	{"telemetry.tick_ns", "ns", "lower", 0},

	{"stats.hist_observe_ns", "ns", "lower", 0},

	{"httpx.requests", "count", "lower", 0},
	{"httpx.get_ns", "ns", "lower", 0},

	{"forward.spliced", "count", "higher", 0},
	{"video.frames_displayed", "count", "higher", 0},
	{"seqpkt.delivered", "count", "higher", 0},
	{"activemsg.invoked", "count", "higher", 0},

	{"ledger.sim_share", "ratio", "lower", 0},
	{"ledger.mbuf_share", "ratio", "lower", 0},
	{"ledger.view_share", "ratio", "lower", 0},
	{"ledger.event_share", "ratio", "lower", 0},
	{"ledger.filter_share", "ratio", "lower", 0},
	{"ledger.fabric_share", "ratio", "lower", 0},
	{"ledger.netdev_share", "ratio", "lower", 0},
	{"ledger.observ_share", "ratio", "lower", 0},
	{"ledger.protocols_share", "ratio", "lower", 0},

	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.hops", "count", "lower", 0},
	{"trace.spans_dropped", "count", "lower", 0},
}

package workload

import (
	"plexus/benchmark/trace"
	"plexus/internal/audit"
	"plexus/internal/ether"
	"plexus/internal/event"
	"plexus/internal/fabric"
	"plexus/internal/httpx"
	"plexus/internal/ip"
	"plexus/internal/netdev"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/tcp"
	"plexus/internal/telemetry"
	"plexus/internal/udp"
)

// world is everything a workload built, as the counter pass needs it: the
// per-layer numbers are read from here through public accessors only.
type world struct {
	sims     []*sim.Sim
	engine   *sim.Engine
	stacks   []*plexus.Stack // every host stack, gateway interfaces included
	servers  []*plexus.Stack // the hosts whose CPU is "the server CPU"
	switches []*netdev.Switch
	gateway  *plexus.Gateway
	pipeline *fabric.Pipeline
	lb       *fabric.LoadBalancer
	nat      *fabric.NAT
	httpd    *httpx.Server

	checkers []*audit.Checker
	spp      []*audit.SPPChecker
	engines  []*telemetry.Engine

	// connsOpened counts active opens the workload made; tracked are the
	// long-lived connections whose per-connection counters must survive
	// their close.
	connsOpened uint64
	tracked     []*tcp.Conn
	// pendingSum/pendingN average the simulator's pending-event count, read
	// at op completions like the queue depth.
	pendingSum, pendingN uint64
	// qdepthMax is the deepest bottleneck-port output queue seen at an op
	// completion (reads only, so sampling fires no event).
	qdepthMax int
	// extra carries counts only the workload can name (extension rigs).
	extra map[string]float64
}

// install puts the traced repetition's sink on every simulator.
func (w *world) install(sink *trace.Sink) {
	if sink == nil {
		return
	}
	for _, s := range w.sims {
		s.SetMetrics(sink)
	}
}

// attachAudit puts an RFC 793 checker on every host's TCP manager.
func (w *world) attachAudit() {
	for _, st := range w.stacks {
		ck := audit.NewChecker(nil)
		st.TCP.SetAuditSink(ck)
		w.checkers = append(w.checkers, ck)
	}
}

func (w *world) serverNames() []string {
	out := make([]string, len(w.servers))
	for i, s := range w.servers {
		out[i] = s.Host.CPU.Name()
	}
	return out
}

func (w *world) gatewayName() string {
	if w.gateway == nil {
		return ""
	}
	return w.gateway.CPU.Name()
}

// serverBusy sums simulated CPU time over the server hosts.
func (w *world) serverBusy() sim.Time {
	var t sim.Time
	seen := map[*sim.CPU]bool{}
	for _, s := range w.servers {
		if !seen[s.Host.CPU] {
			seen[s.Host.CPU] = true
			t += s.Host.CPU.Busy()
		}
	}
	return t
}

// events sums fired events over every simulator.
func (w *world) events() uint64 {
	var n uint64
	for _, s := range w.sims {
		n += s.Executed()
	}
	return n
}

// poolsInUse sums live mbufs over every host pool.
func (w *world) poolsInUse() int64 {
	var n int64
	for _, st := range w.stacks {
		n += st.Host.Pool.Gauge().InUse
	}
	return n
}

// sampleQueue notes a bottleneck port's depth at an op completion.
func (w *world) sampleQueue(p *netdev.Port, now sim.Time) {
	if p == nil {
		return
	}
	if d := p.QueueDepth(now); d > w.qdepthMax {
		w.qdepthMax = d
	}
}

// samplePending notes how many events s has pending at an op completion.
func (w *world) samplePending(s *sim.Sim) {
	w.pendingSum += uint64(s.QueueLen())
	w.pendingN++
}

// raisedEvents are the events the protocol graph declares on every host.
var raisedEvents = []event.Name{
	ether.RecvEvent, ether.SendEvent, ip.RecvEvent, ip.SendEvent,
	udp.RecvEvent, udp.SendEvent, tcp.RecvEvent,
}

func perOp(v float64, ops uint64) float64 {
	if ops == 0 {
		return 0
	}
	return v / float64(ops)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counters reads the (C) metrics — deterministic counts through each layer's
// public accessors — at the end of the measured window.
func (w *world) counters(ops uint64) map[string]float64 {
	c := map[string]float64{}
	ev := w.events()
	c["sim.events"] = float64(ev)
	c["sim.events_per_op"] = perOp(float64(ev), ops)
	if w.engine != nil {
		c["sim.shard_rounds"] = float64(w.engine.Rounds())
	}
	c["sim.pending_mean"] = ratio(float64(w.pendingSum), float64(w.pendingN))

	var gets, recycled, frames, txBytes, txDrops, rxErrs float64
	var highWater int64
	var raises, invocations, bindings, faults float64
	var ipPkts, ipDrops, udpDelivered, udpDrops float64
	var segsOut, fastRec, sackRx, delAcks, connsLive float64
	var connRetx, connSegs float64
	var rto, dupAcks, staleWnd float64
	conns := map[*tcp.Conn]bool{}
	for _, cn := range w.tracked {
		conns[cn] = true
	}
	for _, st := range w.stacks {
		ps := st.Host.Pool.Stats()
		gets += float64(ps.AllocSmall + ps.AllocCluster)
		recycled += float64(ps.Recycled)
		if ps.HighWater > highWater {
			highWater = ps.HighWater
		}
		ns := st.NIC.Stats()
		frames += float64(ns.TxFrames)
		txBytes += float64(ns.TxBytes)
		txDrops += float64(ns.TxDrops)
		rxErrs += float64(ns.RxErrors)
		for _, name := range raisedEvents {
			raises += float64(st.Host.Disp.Raises(name))
		}
		h := st.Host.Disp.Health()
		invocations += float64(h.Invocations)
		bindings += float64(h.Bindings)
		faults += float64(h.Faults)
		is := st.IP.Stats()
		ipPkts += float64(is.Sent + is.Received)
		ipDrops += float64(is.BadChecksum + is.BadHeader + is.NotForUs + is.TTLExpired)
		us := st.UDP.Stats()
		udpDelivered += float64(us.Delivered)
		udpDrops += float64(us.BadChecksum + us.BadHeader + us.NoPort + us.SpoofsBlocked)
		ts := st.TCP.Stats()
		segsOut += float64(ts.SegsOut)
		fastRec += float64(ts.FastRecoveries)
		sackRx += float64(ts.SackRexmits)
		delAcks += float64(ts.DelayedAcks)
		connsLive += float64(st.TCP.NumConns())
		st.TCP.EachConn(func(cn *tcp.Conn) { conns[cn] = true })
	}
	for cn := range conns {
		cs := cn.Stats()
		connRetx += float64(cs.Retransmits)
		connSegs += float64(cs.SegsSent)
		rto += float64(cs.RTOExpiries)
		dupAcks += float64(cs.DupAcksRcvd)
		staleWnd += float64(cs.StaleWndUpdates)
	}
	c["mbuf.gets_per_op"] = perOp(gets, ops)
	c["mbuf.recycle_ratio"] = ratio(recycled, gets)
	c["mbuf.high_water"] = float64(highWater)

	var swDrops, redDrops, swFrames float64
	for _, sw := range w.switches {
		ss := sw.Stats()
		swDrops += float64(ss.Dropped)
		swFrames += float64(ss.Forwarded + ss.Flooded)
		rxErrs += float64(ss.RxErrors)
		for _, p := range sw.Ports() {
			redDrops += float64(p.Stats().REDDrops)
		}
	}
	c["netdev.frames_per_op"] = perOp(frames, ops)
	c["netdev.tx_frames"] = frames
	c["netdev.tx_bytes"] = txBytes
	c["netdev.switch_frames"] = swFrames
	c["mbuf.gets"] = gets
	c["ip.pkts"] = ipPkts
	c["netdev.switch_drops"] = swDrops
	c["netdev.red_drops"] = redDrops
	c["netdev.nic_tx_drops"] = txDrops
	c["netdev.rx_errors"] = rxErrs
	c["netdev.switch_qdepth_max"] = float64(w.qdepthMax)

	c["event.raises_per_op"] = perOp(raises, ops)
	c["event.raises"] = raises
	c["event.invocations"] = invocations
	c["event.bindings_end"] = bindings
	c["event.faults"] = faults

	c["ip.pkts_per_op"] = perOp(ipPkts, ops)
	c["ip.drops"] = ipDrops
	if w.gateway != nil {
		c["ip.forwarded"] = float64(w.gateway.Stats().Forwarded)
	}
	c["udp.delivered_per_op"] = perOp(udpDelivered, ops)
	c["udp.drops"] = udpDrops

	c["tcp.segs_out_per_op"] = perOp(segsOut, ops)
	// Retransmitted segments are counted per connection (the manager's own
	// counter is timeouts only), over the connections still known at the end
	// of the window.
	c["tcp.retx_ratio"] = ratio(connRetx, connSegs)
	c["tcp.fast_recoveries"] = fastRec
	c["tcp.sack_rexmits"] = sackRx
	c["tcp.rto_expiries"] = rto
	c["tcp.dupacks"] = dupAcks
	c["tcp.delayed_acks"] = delAcks
	c["tcp.conns_opened"] = float64(w.connsOpened)
	c["tcp.conns_live_end"] = connsLive
	c["tcp.stale_wnd_updates"] = staleWnd

	if w.pipeline != nil {
		ps := w.pipeline.Stats()
		c["fabric.packets_per_op"] = perOp(float64(ps.Packets), ops)
		c["fabric.packets"] = float64(ps.Packets)
		c["fabric.drops"] = float64(ps.Drops)
		c["fabric.faults"] = float64(ps.Faults)
		var hits float64
		for _, rs := range w.pipeline.Snapshot() {
			hits += float64(rs.Hits)
		}
		c["fabric.rule_hits"] = hits
		c["fabric.match_cost_ns"] = float64(w.pipeline.MatchCost)
		c["fabric.action_cost_ns"] = float64(w.pipeline.ActionCost)
	}
	if w.nat != nil {
		c["fabric.nat_occupancy"] = float64(w.nat.Occupancy())
	}
	if w.lb != nil {
		var total, max uint64
		hits := w.lb.Hits()
		for _, h := range hits {
			total += h
			if h > max {
				max = h
			}
		}
		if total > 0 {
			c["fabric.lb_spread_max_over_mean"] = float64(max) * float64(len(hits)) / float64(total)
		}
	}
	if w.httpd != nil {
		c["httpx.requests"] = float64(w.httpd.Stats().Requests)
	}
	var ticks float64
	for _, e := range w.engines {
		ticks += float64(e.Ticks())
	}
	c["telemetry.ticks"] = ticks
	for k, v := range w.extra {
		c[k] = v
	}
	// Events fired inside rigs the workload does not own (internal/bench
	// builds its simulators itself) are reported by that package's counter.
	if v, ok := c["sim.bench_events"]; ok {
		delete(c, "sim.bench_events")
		c["sim.events"] += v
		c["sim.events_per_op"] = perOp(c["sim.events"], ops)
	}
	return c
}

// verdicts reads what only makes sense after teardown — audit violations,
// watchdog alarms, leaked buffers — and returns how many of each there were.
func (w *world) verdicts(c map[string]float64, poolBaseline int64) (violations, alarms uint64, leaked int64) {
	var transitions uint64
	for _, ck := range w.checkers {
		transitions += ck.Events()
		violations += ck.ViolationCount()
	}
	for _, ck := range w.spp {
		transitions += ck.Events()
		violations += ck.ViolationCount()
	}
	for _, e := range w.engines {
		alarms += e.AlarmTotal()
	}
	leaked = w.poolsInUse() - poolBaseline
	c["audit.transitions"] = float64(transitions)
	c["audit.violations"] = float64(violations)
	c["telemetry.alarms"] = float64(alarms)
	c["mbuf.leaked"] = float64(leaked)
	return violations, alarms, leaked
}

// digestOf hashes the simulated outputs of a repetition. Counts that exist
// only when the traced repetition attaches checkers are left out, so traced
// and untraced repetitions of one seed share a digest.
func digestOf(rec *recorder, c map[string]float64, order []string) uint64 {
	h := mix(rec.hash, rec.ok)
	h = mix(h, rec.failed)
	h = mix(h, rec.bytes)
	for _, l := range rec.lat {
		h = mix(h, uint64(l))
	}
	for _, k := range order {
		h = hashBytes(h, []byte(k))
		h = mix(h, uint64(int64(c[k]*1e6)))
	}
	return h
}

package bench

import (
	"fmt"
	"sort"

	"plexus/internal/fault"
	"plexus/internal/netdev"
	"plexus/internal/plexus"
	"plexus/internal/seqpkt"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// This file implements the `-exp loss` robustness experiment: how gracefully
// each protocol stack degrades as the link loses frames. The paper's
// evaluation runs on a quiet machine-room Ethernet; this sweep asks the
// question the paper could not — does an application-specific stack built
// from runtime-installed extensions recover from loss as well as the
// monolithic one? Loss is injected by internal/fault below every protocol,
// in two patterns: independent random loss (Bernoulli) and 4-frame-mean
// bursts (Gilbert–Elliott), each swept from 0% to 20%.

// Loss workloads.
const (
	WorkloadTCPBulk   = "tcp-bulk"   // one-way 128KB transfer, goodput
	WorkloadSPPStream = "spp-stream" // 50×300B SPP stream, delivery %
	WorkloadHTTP      = "http"       // 40 sequential-ish GETs, p50/p99
)

// LossRow is one cell of the robustness sweep: a loss pattern and rate, a
// system, a workload, its headline metric, and the fault plane's own
// accounting of what it did to the wire.
type LossRow struct {
	Pattern  string  `json:"pattern"`  // "random" | "burst"
	RatePct  float64 `json:"rate_pct"` // configured loss probability, percent
	System   System  `json:"system"`
	Workload string  `json:"workload"`

	// GoodputMbps is the receiver-observed rate (tcp-bulk only).
	GoodputMbps float64 `json:"goodput_mbps,omitempty"`
	// DeliveredPct is the fraction of the offered workload that completed:
	// bytes for tcp-bulk, messages for spp-stream, requests for http.
	DeliveredPct float64 `json:"delivered_pct"`
	// P50/P99 are HTTP GET latency percentiles over completed requests.
	P50 sim.Time `json:"p50_ns,omitempty"`
	P99 sim.Time `json:"p99_ns,omitempty"`

	// Fault is the injector's per-model accounting; LinkDropped is the
	// link's own drop counter (loss models plus any pre-existing drops).
	Fault       fault.Stats `json:"fault"`
	LinkDropped uint64      `json:"link_dropped"`

	// AuditTransitions counts TCP state transitions observed by the RFC 793
	// conformance checkers on both hosts; AuditViolations must be zero for
	// the cell to produce a row at all (a violation fails the sweep).
	AuditTransitions uint64 `json:"audit_transitions"`
	AuditViolations  uint64 `json:"audit_violations"`

	// TCP is the transports' conformance gauge summed over both hosts.
	TCP TCPGauge `json:"tcp"`
}

// TCPGauge is the slice of tcp.Stats a row reports: rejected RSTs,
// TIME-WAIT quiet-period activity, and loss recovery.
type TCPGauge struct {
	RSTsRejected       uint64 `json:"tcp_rsts_rejected"`
	TimeWaitRearms     uint64 `json:"tcp_timewait_rearms"`
	TimeWaitQuietDrops uint64 `json:"tcp_timewait_quiet_drops"`
	// FastRecoveries counts NewReno fast-recovery episodes; SackRexmits
	// counts scoreboard-driven selective retransmissions.
	FastRecoveries uint64 `json:"tcp_fast_recoveries"`
	SackRexmits    uint64 `json:"tcp_sack_rexmits"`
}

// tcpGauge sums the TCP managers' counters over a rig's hosts.
func tcpGauge(hosts ...*plexus.Stack) TCPGauge {
	var g TCPGauge
	for _, h := range hosts {
		s := h.TCP.Stats()
		g.RSTsRejected += s.RSTsRejected
		g.TimeWaitRearms += s.TimeWaitRearms
		g.TimeWaitQuietDrops += s.TimeWaitQuietDrops
		g.FastRecoveries += s.FastRecoveries
		g.SackRexmits += s.SackRexmits
	}
	return g
}

// lossModel builds the drop model for one (pattern, rate) cell.
func lossModel(pattern string, rate float64) fault.DropModel {
	if pattern == "burst" {
		return fault.Burst(rate, 4)
	}
	return fault.Bernoulli{P: rate}
}

// The legitimate flows the loss and rogue sweeps offer.
const (
	flowBulkBytes = 128 << 10 // one-way TCP transfer
	flowSPPMsgs   = 50        // SPP messages, 300B each, one per 20ms
	flowSPPSize   = 300
	flowGets      = 40 // HTTP GETs of a 1KB page, one per 25ms
)

// flowOutcome is what a flow delivered: the completed fraction of its offered
// load (bytes, messages or requests), the bulk receiver's goodput, and the
// message or request latencies.
type flowOutcome struct {
	pct  float64
	mbps float64
	lats []sim.Time
}

// runFlow offers workload wl from client to server and runs the network to
// the workload's horizon. TCP is reliable, so a bulk transfer short of 100%
// within the (generous) horizon means recovery stalled — itself a result.
// SPP retransmits on a fixed 500ms timer and abandons after its cap, so loss
// shows up as a latency tail first and as missing messages only under
// sustained loss; likewise loss stretches the HTTP tail long before it moves
// the median.
func runFlow(n *plexus.Network, client, server *plexus.Stack, wl string) (flowOutcome, error) {
	switch wl {
	case WorkloadTCPBulk:
		rx, err := startBulk(client, server, flowBulkBytes)
		if err != nil {
			return flowOutcome{}, err
		}
		n.Sim.RunUntil(10 * 60 * sim.Second)
		return flowOutcome{pct: 100 * float64(rx.got) / flowBulkBytes, mbps: rx.mbps()}, nil
	case WorkloadSPPStream:
		sp, err := startSPP(client, server)
		if err != nil {
			return flowOutcome{}, err
		}
		n.Sim.RunUntil(5 * 60 * sim.Second)
		return flowOutcome{pct: 100 * float64(sp.rx.Stats().Delivered) / flowSPPMsgs, lats: sp.lats}, nil
	default:
		if err := serveHTTP(server); err != nil {
			return flowOutcome{}, err
		}
		gets := getsAt(client, server, flowGets, 25*sim.Millisecond, 25*sim.Millisecond)
		n.Sim.RunUntil(10 * 60 * sim.Second)
		return flowOutcome{pct: 100 * float64(len(gets.rtts)) / flowGets, lats: gets.rtts}, nil
	}
}

// installSPP loads the sequenced-packet protocol on st as an extension.
func installSPP(st *plexus.Stack) (*seqpkt.Manager, error) {
	return seqpkt.Install(seqpkt.Config{
		Sim:              st.Host.Sim,
		IP:               st.IP,
		Disp:             st.Host.Disp,
		Raise:            st.Raiser(),
		CPU:              st.Host.CPU,
		Pool:             st.Host.Pool,
		Costs:            st.Host.Costs,
		RequireEphemeral: st.InterruptMode(),
	})
}

// sppStream is an SPP message stream from client port 41 to server port 40
// with each message's send→deliver latency.
type sppStream struct {
	rx     *seqpkt.Endpoint
	sentAt map[uint32]sim.Time
	lats   []sim.Time
}

// startSPP installs SPP on both hosts and schedules the flow's messages.
func startSPP(client, server *plexus.Stack) (*sppStream, error) {
	mc, err := installSPP(client)
	if err != nil {
		return nil, err
	}
	ms, err := installSPP(server)
	if err != nil {
		return nil, err
	}
	sp := &sppStream{sentAt: make(map[uint32]sim.Time, flowSPPMsgs)}
	sp.rx, err = ms.Open(40, func(t *sim.Task, seq uint32, data []byte, src view.IP4, srcPort uint16) {
		if at, ok := sp.sentAt[seq]; ok {
			sp.lats = append(sp.lats, t.Now()-at)
		}
	})
	if err != nil {
		return nil, err
	}
	tx, err := mc.Open(41, nil)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, flowSPPSize)
	for i := 0; i < flowSPPMsgs; i++ {
		client.SpawnAt(sim.Time(i+1)*20*sim.Millisecond, "spp-sender", func(t *sim.Task) {
			seq, err := tx.Send(t, server.Addr(), 40, payload)
			if err == nil {
				sp.sentAt[seq] = t.Now()
			}
		})
	}
	return sp, nil
}

// tail returns the median and 99th percentile of lats, sorting it in place.
func tail(lats []sim.Time) (p50, p99 sim.Time) {
	if len(lats) == 0 {
		return 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats[len(lats)/2], lats[min(len(lats)-1, len(lats)*99/100)]
}

// lossCell runs workload wl on a two-host Ethernet whose link drops frames
// per (pattern, rate), with the RFC 793 checkers on both hosts: host 0 is
// the client/sender, host 1 the server/receiver.
func lossCell(sys System, pattern string, rate float64, wl string) (LossRow, error) {
	n, client, server, err := twoHosts(netdev.EthernetModel(), sys)
	if err != nil {
		return LossRow{}, err
	}
	in := fault.Attach(n.Sim, n.Link)
	if rate > 0 {
		in.Lose(lossModel(pattern, rate))
	}
	aud := attachAudit(client, server)
	defer recordEvents(n.Sim)
	f, err := runFlow(n, client, server, wl)
	if err != nil {
		return LossRow{}, err
	}
	if err := aud.check(); err != nil {
		return LossRow{}, err
	}
	row := LossRow{
		Pattern:          pattern,
		RatePct:          100 * rate,
		System:           sys,
		Workload:         wl,
		GoodputMbps:      f.mbps,
		DeliveredPct:     f.pct,
		Fault:            in.Stats(),
		LinkDropped:      n.Link.Dropped(),
		AuditTransitions: aud.transitions(),
		AuditViolations:  aud.violations(),
		TCP:              tcpGauge(client, server),
	}
	row.P50, row.P99 = tail(f.lats)
	return row, nil
}

// Loss runs the robustness sweep: every loss pattern × rate × system ×
// workload as an independent cell (its own sim, link, and injector), fanned
// out over RunCells — rows are byte-identical at any parallelism. The burst
// pattern is skipped at rate 0 (identical to random at 0).
func Loss(rates []float64) ([]LossRow, error) {
	type cell struct {
		pattern string
		rate    float64
		sys     System
		wl      string
	}
	var cells []cell
	for _, pattern := range []string{"random", "burst"} {
		for _, rate := range rates {
			if pattern == "burst" && rate == 0 {
				continue
			}
			for _, sys := range []System{SysPlexusInterrupt, SysDUX} {
				for _, wl := range []string{WorkloadTCPBulk, WorkloadSPPStream, WorkloadHTTP} {
					cells = append(cells, cell{pattern, rate, sys, wl})
				}
			}
		}
	}
	return RunCells(cells, func(c cell) (LossRow, error) {
		row, err := lossCell(c.sys, c.pattern, c.rate, c.wl)
		if err != nil {
			return LossRow{}, fmt.Errorf("loss %s/%.0f%%/%s/%s: %w", c.pattern, 100*c.rate, c.sys, c.wl, err)
		}
		return row, nil
	})
}

package tcp

import (
	"fmt"
	"strconv"

	"plexus/internal/event"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// State is a TCP connection state (RFC 793 §3.2).
type State int

// Connection states (RFC 793 §3.2). StateListen appears on passive opens:
// the listener clones its LISTEN state into each new TCB, so the audited
// lifecycle of an accepted connection is CLOSED→LISTEN→SYN-RECEIVED→…,
// matching the RFC's state diagram verbatim.
const (
	StateClosed State = iota
	StateListen
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateClosing
	StateLastAck
	StateTimeWait
	// NumStates bounds fixed per-state tables (the conformance checker's
	// legality matrix).
	NumStates
)

var stateNames = [...]string{
	"CLOSED", "LISTEN", "SYN-SENT", "SYN-RECEIVED", "ESTABLISHED",
	"FIN-WAIT-1", "FIN-WAIT-2", "CLOSE-WAIT", "CLOSING", "LAST-ACK",
	"TIME-WAIT",
}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Protocol timing constants.
const (
	// minRTO/maxRTO bound the retransmission timeout. The floor is the
	// RFC 6298 conservative 1s; stacks tuned for low-latency recovery may
	// lower it per host via Config.MinRTO (Linux uses 200ms).
	minRTO = 1 * sim.Second
	maxRTO = 64 * sim.Second
	// initialRTO applies before any RTT sample (RFC 6298 suggests 1s;
	// 1995-era stacks used ~1.5s).
	initialRTO = 1 * sim.Second
	// delayedAckDelay is the standard 200ms delayed-ACK clock.
	delayedAckDelay = 200 * sim.Millisecond
	// MSL is the maximum segment lifetime; TIME-WAIT lasts 2*MSL. Exported
	// so tests and tools can compute when a TIME-WAIT TCB must unwind.
	MSL = 30 * sim.Second
	msl = MSL
	// defaultRcvWnd is the receive buffer/advertised window.
	defaultRcvWnd = 64*1024 - 1
	// dupThresh triggers fast retransmit.
	dupThresh = 3
	// maxSynRetries bounds connection-establishment attempts.
	maxSynRetries = 5
	// maxOOOSegs bounds buffered out-of-order segments per connection.
	maxOOOSegs = 64
	// persistInterval is the base zero-window probe interval.
	persistInterval = 2 * sim.Second
	// maxPersistInterval caps persist backoff.
	maxPersistInterval = 60 * sim.Second
)

// App is the application end of a connection: the four calls a Conn makes
// into the code above it, each in the task that processed the segment or
// timer behind it. A passive open has no App until its listener's accept
// returns one, which happens only once the peer has ACKed our SYN: a
// connection that dies in SYN-RECEIVED calls nothing.
type App interface {
	// Established runs when the handshake completes.
	Established(t *sim.Task)
	// Recv delivers in-order payload bytes as they arrive. The slice is
	// valid only during the call — it aliases a buffer the next segment
	// overwrites — so a callee that defers its work copies what it keeps.
	Recv(t *sim.Task, data []byte)
	// PeerFin runs when the peer's FIN arrives (end of their stream).
	PeerFin(t *sim.Task)
	// Closed runs when the connection fully terminates; err is nil for an
	// orderly close, ErrReset for a RST.
	Closed(err error)
}

type sndState struct {
	iss uint32
	una uint32
	nxt uint32
	max uint32 // highest sequence ever sent + 1 (snd.nxt may rewind below it on RTO)
	wnd uint32 // peer's advertised window, scaled
	// wl1/wl2 are the seq/ack of the segment the window was last taken
	// from: RFC 793's update-legality rule, so a stale reordered ACK can
	// neither shrink nor re-open the send window.
	wl1 uint32
	wl2 uint32
	// congestion control
	cwnd     uint32
	ssthresh uint32
	dupAcks  int
	// recover is RFC 6582's recovery point: snd.max at loss detection. A
	// cumulative ACK at or past it ends the recovery episode.
	recover uint32
}

type rcvState struct {
	nxt uint32
	wnd uint32
}

type oooSeg struct {
	seq     uint32
	payload []byte
	fin     bool
}

// ConnStats counts per-connection activity.
type ConnStats struct {
	BytesSent    uint64
	SegsSent     uint64
	Retransmits  uint64
	FastRexmits  uint64
	RTOExpiries  uint64
	DupAcksRcvd  uint64
	OOOBuffered  uint64
	OOODropped   uint64
	WindowProbes uint64 // zero-window persist probes sent
	// FastRecoveries counts NewReno fast-recovery episodes entered.
	FastRecoveries uint64
	// PartialAcks counts RFC 6582 partial ACKs handled inside recovery.
	PartialAcks uint64
	// SackRexmits counts scoreboard-driven selective retransmissions.
	SackRexmits uint64
	// SacksRcvd counts segments arriving with SACK blocks.
	SacksRcvd uint64
	// StaleWndUpdates counts window updates refused by the WL1/WL2
	// freshness rule — each one is a reordered segment that would have
	// corrupted the send window before the rule was enforced.
	StaleWndUpdates uint64
}

// Conn is one TCP connection (a TCB plus its guard binding).
type Conn struct {
	mgr *Manager
	app App
	// noSack withholds the SACK-permitted option from this end's SYN (or
	// SYN|ACK), so neither side sends SACK blocks and loss recovery runs on
	// cumulative ACKs alone.
	noSack bool

	localPort  uint16
	remoteAddr view.IP4
	remotePort uint16

	state State
	snd   sndState
	rcv   rcvState
	mss   uint32

	// Congestion control (policy) and loss-recovery phase (mechanism).
	cc       CongestionControl
	recovery RecoveryState
	// sb is the SACK scoreboard; rexmitHint is the next selective-
	// retransmit candidate within the current recovery episode; rescueSeq
	// is snd.max when the hole at snd.una was last retransmitted — SACKed
	// data above it proves that retransmission lost (the links are FIFO,
	// so later data overtaking it can only mean a drop).
	sb         scoreboard
	rexmitHint uint32
	rescueSeq  uint32
	// Negotiated options: peerSackOK gates SACK blocks both ways;
	// peerWScaleOK records the peer offered window scaling; sndWndScale
	// shifts the peer's window field, rcvWndScale ours.
	peerSackOK   bool
	peerWScaleOK bool
	sndWndScale  uint8
	rcvWndScale  uint8
	// optBuf is the scratch buffer outgoing option blocks are built in.
	optBuf [sackOptsLen]byte
	// lastOOOSeq is the most recently buffered out-of-order sequence — the
	// block RFC 2018 requires first in outgoing SACK options.
	lastOOOSeq uint32

	// sndBuf holds bytes from snd.una onward (unacked + unsent).
	sndBuf byteRing
	// finQueued marks that the application closed its send side; the FIN
	// goes out after the buffer drains.
	finQueued bool
	finSeq    uint32 // sequence of our FIN, valid once sent
	finSent   bool

	// ooo is the out-of-order queue in sequence order; oooFree recycles its
	// payload storage, so a connection allocates at most maxOOOSegs buffers
	// however long it spends in recovery.
	ooo     []oooSeg
	oooFree [][]byte

	// Receiver-side flow control: when the application pauses delivery,
	// in-order data accumulates in rcvBuf and the advertised window
	// shrinks toward zero.
	rcvBuf    []byte
	paused    bool
	rcvWndCap uint32

	// timers
	rexmitTimer  sim.Timer
	ackTimer     sim.Timer
	twTimer      sim.Timer
	persistTimer sim.Timer
	persistShift uint
	// Pacing (BBR-style senders): no data segment leaves before paceNext;
	// when the gate closes, paceTimer re-runs output at the release time.
	paceTimer sim.Timer
	paceNext  sim.Time
	// RTT estimation (Jacobson), Karn's rule via rttSeq/rttStart.
	srtt     sim.Time
	rttvar   sim.Time
	rto      sim.Time
	rttSeq   uint32
	rttStart sim.Time
	rttValid bool
	backoff  uint

	synRetries int
	binding    *event.Binding
	listener   *Listener
	stats      ConnStats
	dead       bool
	slot       int // index in mgr.connList
	// probeTag is the telemetry probe's opaque per-connection slot (cached
	// series handles); see telemetry.go.
	probeTag any
}

// newConn allocates a TCB and installs its keyed guard (exact 4-tuple match —
// the anti-snooping edge) on TCP.PacketRecv.
func (m *Manager) newConn(localPort uint16, remote view.IP4, remotePort uint16) *Conn {
	c := &Conn{
		mgr:        m,
		localPort:  localPort,
		remoteAddr: remote,
		remotePort: remotePort,
		mss:        uint32(m.MSS()),
		rto:        initialRTO,
	}
	c.rcv.wnd = defaultRcvWnd
	c.rcvWndCap = c.rcv.wnd
	// Provisional receive-window scale; zeroed if the peer doesn't
	// negotiate RFC 7323 scaling on the handshake.
	c.rcvWndScale = wndScaleFor(c.rcvWndCap)
	c.snd.iss = m.iss()
	c.snd.una = c.snd.iss
	c.snd.nxt = c.snd.iss
	c.snd.max = c.snd.iss
	c.snd.recover = c.snd.iss
	c.cc = newCC(m.defaultCC)
	c.cc.Init(c)
	h := event.Handler{
		Name:      connName(localPort, remote, remotePort),
		Fn:        c.segArrives,
		Ephemeral: true,
	}
	b, err := m.host.Disp.InstallKey(RecvEvent, connKeyOf(localPort, remote, remotePort), h, 0)
	if err != nil {
		// RecvEvent is always declared by New, with segKey, and a TCB's
		// 4-tuple is free: allocPort hands out no port a TCB holds, and a
		// listener's wildcard key gets no segment of a bound key.
		panic(err)
	}
	c.binding = b
	if m.portConns == nil {
		m.portConns = make(map[uint16]int)
	}
	m.portConns[localPort]++
	c.slot = len(m.connList)
	m.connList = append(m.connList, c)
	m.liveConns++
	return c
}

// connName is a connection handler's name, tcp.conn:<lport>-<raddr>:<rport>
// — the name trace exports and BindingStats report.
func connName(localPort uint16, remote view.IP4, remotePort uint16) string {
	var b [40]byte
	n := append(b[:0], "tcp.conn:"...)
	n = strconv.AppendUint(n, uint64(localPort), 10)
	n = append(n, '-')
	n = remote.AppendTo(n)
	n = append(n, ':')
	n = strconv.AppendUint(n, uint64(remotePort), 10)
	return string(n)
}

// Connect performs an active open to dst:dstPort on behalf of app; noSack
// withholds SACK from the handshake.
func (m *Manager) Connect(t *sim.Task, dst view.IP4, dstPort uint16, app App, noSack bool) (*Conn, error) {
	port, err := m.allocPort()
	if err != nil {
		return nil, err
	}
	c := m.newConn(port, dst, dstPort)
	c.app, c.noSack = app, noSack
	c.setState(StateSynSent, userCause(CauseConnect))
	c.sendSYN(t)
	return c, nil
}

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// Stats returns a snapshot of per-connection counters.
func (c *Conn) Stats() ConnStats { return c.stats }

// LocalPort returns the local port.
func (c *Conn) LocalPort() uint16 { return c.localPort }

// RemoteAddr returns the peer address and port.
func (c *Conn) RemoteAddr() (view.IP4, uint16) { return c.remoteAddr, c.remotePort }

// RTO returns the current retransmission timeout (tests observe backoff).
func (c *Conn) RTO() sim.Time { return c.rto }

// SendBufBytes returns how many bytes sit in the send buffer (unacked+unsent).
func (c *Conn) SendBufBytes() int { return c.sndBuf.len() }

// --- output ---

// synOpts builds the option block for an outgoing SYN or SYN|ACK. A SYN
// offers everything; a SYN|ACK echoes only what the peer offered (RFC 2018
// §2, RFC 7323 §2.2).
func (c *Conn) synOpts(echo bool) []byte {
	sackPerm := !c.noSack
	wscale := int8(c.rcvWndScale)
	if echo {
		sackPerm = sackPerm && c.peerSackOK
		if !c.peerWScaleOK {
			wscale = -1
		}
	}
	return putSynOptions(c.optBuf[:], uint16(c.mss), wscale, sackPerm)
}

func (c *Conn) sendSYN(t *sim.Task) {
	c.snd.nxt = c.snd.iss + 1
	c.bumpSndMax()
	c.stats.SegsSent++
	c.mgr.sendSegment(t, c.localPort, c.remoteAddr, c.remotePort, c.snd.iss, 0, view.TCPSyn, c.rcv.wnd, c.synOpts(false), nil, nil)
	c.armRexmit()
	c.startRTT(c.snd.iss)
}

func (c *Conn) sendSYNACK(t *sim.Task) {
	c.snd.nxt = c.snd.iss + 1
	c.bumpSndMax()
	c.stats.SegsSent++
	c.mgr.sendSegment(t, c.localPort, c.remoteAddr, c.remotePort, c.snd.iss, c.rcv.nxt, view.TCPSyn|view.TCPAck, c.rcv.wnd, c.synOpts(true), nil, nil)
	c.armRexmit()
}

// wireRcvWnd is the window value advertised on non-SYN segments: the real
// window right-shifted by the negotiated receive scale (sendSegment clamps
// the result to the 16-bit field).
func (c *Conn) wireRcvWnd() uint32 { return c.rcv.wnd >> c.rcvWndScale }

// segWnd is the peer's effective window from a segment: the 16-bit field
// shifted by the negotiated scale, except on SYNs, which are never scaled
// (RFC 7323 §2.2).
func (c *Conn) segWnd(s seg) uint32 {
	if s.flags&view.TCPSyn != 0 {
		return s.wnd
	}
	return s.wnd << c.sndWndScale
}

// sendACK emits a bare acknowledgment now, cancelling any delayed ACK. It
// carries SACK blocks whenever out-of-order data is buffered.
func (c *Conn) sendACK(t *sim.Task) {
	c.ackTimer.Stop()
	c.stats.SegsSent++
	c.mgr.sendSegment(t, c.localPort, c.remoteAddr, c.remotePort, c.snd.nxt, c.rcv.nxt, view.TCPAck, c.wireRcvWnd(), c.ackOpts(), nil, nil)
}

// scheduleDelayedACK arms the 200ms ACK clock if not already pending.
func (c *Conn) scheduleDelayedACK() {
	if c.ackTimer.Pending() {
		return
	}
	c.ackTimer = c.mgr.host.Sim.AfterArg(delayedAckDelay, "tcp-delack", delackFire, c)
}

// Send appends data to the connection's stream. It is accepted immediately
// into the send buffer and transmitted as the windows allow.
func (c *Conn) Send(t *sim.Task, data []byte) error {
	switch c.state {
	case StateEstablished, StateCloseWait, StateSynSent, StateSynRcvd:
	default:
		return ErrClosed
	}
	if c.finQueued {
		return ErrClosed
	}
	if c.sndBuf.buf == nil {
		c.sndBuf.buf = c.mgr.takeRing(len(data))
	}
	c.sndBuf.append(data)
	c.output(t)
	return nil
}

// Close ends the send side: a FIN is queued after any buffered data.
func (c *Conn) Close(t *sim.Task) {
	switch c.state {
	case StateClosed, StateTimeWait, StateLastAck, StateClosing, StateFinWait1, StateFinWait2:
		return
	}
	if c.finQueued {
		return
	}
	c.finQueued = true
	switch c.state {
	case StateEstablished, StateSynRcvd:
		c.setState(StateFinWait1, userCause(CauseClose))
	case StateCloseWait:
		c.setState(StateLastAck, userCause(CauseClose))
	case StateSynSent:
		c.teardown(nil, userCause(CauseClose))
		return
	}
	c.output(t)
}

// Abort sends a RST and destroys the connection.
func (c *Conn) Abort(t *sim.Task) {
	if c.dead {
		return
	}
	c.mgr.stats.RSTsSent++
	c.mgr.sendSegment(t, c.localPort, c.remoteAddr, c.remotePort, c.snd.nxt, c.rcv.nxt, view.TCPRst|view.TCPAck, 0, nil, nil, nil)
	c.teardown(ErrReset, userCause(CauseAbort))
}

// usableWindow returns how many new bytes the windows currently permit.
func (c *Conn) usableWindow() uint32 {
	wnd := c.snd.wnd
	if c.snd.cwnd < wnd {
		wnd = c.snd.cwnd
	}
	inFlight := c.snd.nxt - c.snd.una
	if inFlight >= wnd {
		return 0
	}
	return wnd - inFlight
}

// output transmits as much buffered data (and a queued FIN) as the windows
// allow. This is the single transmission path for new data.
func (c *Conn) output(t *sim.Task) {
	if c.state != StateEstablished && c.state != StateCloseWait &&
		c.state != StateFinWait1 && c.state != StateLastAck {
		return
	}
	for {
		offset := c.snd.nxt - c.snd.una // bytes of sndBuf already in flight
		// The FIN occupies sequence space beyond the buffer; once it (or
		// all buffered data) is in flight there is nothing new to send.
		if offset >= uint32(c.sndBuf.len()) {
			break
		}
		avail := uint32(c.sndBuf.len()) - offset
		if c.usableWindow() == 0 {
			break
		}
		n := avail
		if w := c.usableWindow(); n > w {
			n = w
		}
		if n > c.mss {
			n = c.mss
		}
		// Sender-side silly-window avoidance: when the window (not the
		// buffer) limits us to a sub-MSS runt, wait for an ACK instead
		// of sending it — 65535 mod MSS would otherwise generate a runt
		// every window's worth of data.
		if n < c.mss && n < avail {
			break
		}
		// Pacing gate (BBR-style senders): hold the segment until the pace
		// clock releases it; the timer re-enters output at that instant.
		if c.paceGate(n) {
			break
		}
		pay0, pay1 := c.sndBuf.peek(int(offset), int(n))
		flags := uint8(view.TCPAck)
		// PSH on the last segment of the buffered data.
		if offset+n == uint32(c.sndBuf.len()) {
			flags |= view.TCPPsh
		}
		seq := c.snd.nxt
		c.snd.nxt += n
		c.bumpSndMax()
		c.stats.SegsSent++
		c.stats.BytesSent += uint64(n)
		c.ackTimer.Stop() // data segment carries the ACK
		c.mgr.sendSegment(t, c.localPort, c.remoteAddr, c.remotePort, seq, c.rcv.nxt, flags, c.wireRcvWnd(), nil, pay0, pay1)
		c.startRTT(seq)
		c.armRexmit()
	}
	// Stalled with data waiting and either a closed window or nothing in
	// flight to draw further ACKs (the sender-SWS small-window case):
	// enter persist mode so a silent peer cannot deadlock the connection.
	if c.snd.nxt-c.snd.una < uint32(c.sndBuf.len()) &&
		(c.snd.wnd == 0 || c.snd.nxt == c.snd.una) {
		c.armPersist()
	}
	// Send the FIN once the buffer has fully drained into the window.
	if c.finQueued && !c.finSent && c.snd.nxt == c.snd.una+uint32(c.sndBuf.len()) {
		c.finSeq = c.snd.nxt
		c.snd.nxt++
		c.bumpSndMax()
		c.finSent = true
		c.stats.SegsSent++
		c.mgr.sendSegment(t, c.localPort, c.remoteAddr, c.remotePort, c.finSeq, c.rcv.nxt, view.TCPFin|view.TCPAck, c.wireRcvWnd(), nil, nil, nil)
		c.armRexmit()
	}
}

// paceGate enforces the congestion controller's pacing schedule: it returns
// true when the next send must wait, arming a timer to resume output at the
// release time. Unpaced algorithms (PacingDelay 0) never close the gate.
func (c *Conn) paceGate(n uint32) bool {
	d := c.cc.PacingDelay(c, n)
	if d == 0 {
		return false
	}
	now := c.mgr.host.Sim.Now()
	if now < c.paceNext {
		c.armPace(c.paceNext - now)
		return true
	}
	c.paceNext = now + d
	return false
}

func (c *Conn) armPace(d sim.Time) {
	if c.paceTimer.Pending() {
		return
	}
	c.paceTimer = c.mgr.host.Sim.AfterArg(d, "tcp-pace", paceFire, c)
}

// --- timers & RTT ---

// Every connection timer is a package-level function taking the *Conn as its
// argument, so arming a timer allocates nothing. All but TIME-WAIT's fire in
// two steps: the simulator event hops onto the host CPU at kernel priority,
// and the task does the work.

func (c *Conn) submitTimer(label string, fn func(*sim.Task, any)) {
	if !c.dead {
		c.mgr.host.CPU.SubmitAtArg(c.mgr.host.Sim.Now(), sim.PrioKernel, label, fn, c)
	}
}

func rexmitFire(a any)  { a.(*Conn).submitTimer("tcp-rexmit", rexmitTask) }
func paceFire(a any)    { a.(*Conn).submitTimer("tcp-pace", paceTask) }
func persistFire(a any) { a.(*Conn).submitTimer("tcp-persist", persistTask) }

func delackFire(a any) {
	c := a.(*Conn)
	if !c.dead {
		c.mgr.stats.DelayedAcks++
		c.submitTimer("tcp-delack", delackTask)
	}
}

// timeWaitFire ends TIME-WAIT. It runs as a plain simulator event, not a
// CPU task: freeing the TCB charges nothing.
func timeWaitFire(a any) {
	if c := a.(*Conn); !c.dead {
		c.teardown(nil, timerCause(Cause2MSL))
	}
}

func rexmitTask(t *sim.Task, a any) {
	if c := a.(*Conn); !c.dead {
		c.onRexmitTimeout(t)
	}
}

func paceTask(t *sim.Task, a any) {
	if c := a.(*Conn); !c.dead {
		c.output(t)
	}
}

func persistTask(t *sim.Task, a any) {
	if c := a.(*Conn); !c.dead {
		c.sendWindowProbe(t)
	}
}

func delackTask(t *sim.Task, a any) {
	if c := a.(*Conn); !c.dead {
		c.sendACK(t)
	}
}

func (c *Conn) startRTT(seq uint32) {
	if c.rttValid {
		return // a sample is already being timed
	}
	c.rttValid = true
	c.rttSeq = seq
	c.rttStart = c.mgr.host.Sim.Now()
}

// sampleRTT applies Jacobson's estimator when an ACK covers the timed
// segment; Karn's rule is honoured by cancelRTT on retransmission.
func (c *Conn) sampleRTT(ack uint32) {
	if !c.rttValid || !seqGT(ack, c.rttSeq) {
		return
	}
	c.rttValid = false
	m := c.mgr.host.Sim.Now() - c.rttStart
	if c.srtt == 0 {
		c.srtt = m
		c.rttvar = m / 2
	} else {
		diff := m - c.srtt
		if diff < 0 {
			diff = -diff
		}
		c.rttvar += (diff - c.rttvar) / 4
		c.srtt += (m - c.srtt) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	floor := c.mgr.minRTO
	if floor == 0 {
		floor = minRTO
	}
	if c.rto < floor {
		c.rto = floor
	}
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
	c.backoff = 0
	if c.cc != nil {
		c.cc.OnRTTSample(c, m)
	}
}

func (c *Conn) cancelRTT() { c.rttValid = false }

func (c *Conn) armRexmit() {
	c.rexmitTimer.Stop()
	rto := c.rto << c.backoff
	if rto > maxRTO {
		rto = maxRTO
	}
	c.rexmitTimer = c.mgr.host.Sim.AfterArg(rto, "tcp-rexmit", rexmitFire, c)
}

func (c *Conn) disarmRexmit() {
	c.rexmitTimer.Stop()
	c.rexmitTimer = sim.Timer{}
}

// onRexmitTimeout retransmits the oldest unacknowledged data with exponential
// backoff and collapses the congestion window (RFC 5681 timeout behaviour).
func (c *Conn) onRexmitTimeout(t *sim.Task) {
	if c.snd.una == c.snd.nxt && !c.finSent {
		return // everything acked in the meantime
	}
	c.stats.RTOExpiries++
	c.mgr.stats.Retransmits++
	c.backoff++
	c.cancelRTT() // Karn: never time retransmitted segments
	switch c.state {
	case StateSynSent:
		c.synRetries++
		if c.synRetries > maxSynRetries {
			c.teardown(fmt.Errorf("tcp: connect to %v:%d timed out", c.remoteAddr, c.remotePort), timerCause(CauseRTO))
			return
		}
		c.stats.Retransmits++
		c.mgr.sendSegment(t, c.localPort, c.remoteAddr, c.remotePort, c.snd.iss, 0, view.TCPSyn, c.rcv.wnd, c.synOpts(false), nil, nil)
		c.armRexmit()
		return
	case StateSynRcvd:
		c.synRetries++
		if c.synRetries > maxSynRetries {
			c.teardown(fmt.Errorf("tcp: handshake with %v:%d timed out", c.remoteAddr, c.remotePort), timerCause(CauseRTO))
			return
		}
		c.stats.Retransmits++
		c.mgr.sendSegment(t, c.localPort, c.remoteAddr, c.remotePort, c.snd.iss, c.rcv.nxt, view.TCPSyn|view.TCPAck, c.rcv.wnd, c.synOpts(true), nil, nil)
		c.armRexmit()
		return
	}
	// The algorithm collapses the window (RFC 5681 timeout behaviour). The
	// scoreboard is discarded — after a timeout its view of the receiver is
	// stale.
	c.recovery = RecoveryLoss
	c.snd.recover = c.snd.max
	c.snd.dupAcks = 0
	c.sb.reset()
	c.rexmitHint = 0
	c.cc.OnRTO(c)
	if n := c.retransmitOldest(t); n > 0 {
		// Go-back-N: everything past the retransmitted segment predates
		// the timeout and is presumed lost. Rewinding snd.nxt lets ACK
		// progress reopen usableWindow so output() resends the rest under
		// slow start, instead of paying one backed-off RTO per segment.
		// snd.max remembers the true high-water mark so ACKs for rewound
		// sequence space (data the receiver had buffered) stay acceptable.
		c.snd.nxt = c.snd.una + n
		if c.finSent && seqLE(c.snd.nxt, c.finSeq) {
			c.finSent = false // FIN rewound too; output() re-sends it at drain
		}
	}
	c.armRexmit()
}

// bumpSndMax records the high-water mark of sent sequence space.
func (c *Conn) bumpSndMax() {
	if seqGT(c.snd.nxt, c.snd.max) {
		c.snd.max = c.snd.nxt
	}
}

// retransmitOldest resends one segment starting at snd.una and reports how
// many data bytes it carried (0 for a FIN-only retransmission).
func (c *Conn) retransmitOldest(t *sim.Task) uint32 {
	return c.retransmitHole(t, c.snd.una, 0)
}

// retransmitHole resends one MSS-bounded segment starting at start, bounded
// by end when nonzero (the next SACKed range — no point resending bytes the
// receiver already holds). It reports the data bytes carried (0 for a
// FIN-only retransmission) and cancels any in-progress RTT sample (Karn's
// rule: retransmitted sequence space must never be timed).
func (c *Conn) retransmitHole(t *sim.Task, start, end uint32) uint32 {
	if seqLT(start, c.snd.una) {
		start = c.snd.una
	}
	offset := start - c.snd.una
	buflen := uint32(c.sndBuf.len())
	if offset >= buflen {
		// Only the FIN lives beyond the buffer.
		if c.finSent && seqLE(c.snd.una, c.finSeq) && seqLE(start, c.finSeq) {
			c.stats.Retransmits++
			c.cancelRTT()
			c.mgr.sendSegment(t, c.localPort, c.remoteAddr, c.remotePort, c.finSeq, c.rcv.nxt, view.TCPFin|view.TCPAck, c.wireRcvWnd(), nil, nil, nil)
		}
		return 0
	}
	n := buflen - offset
	if end != 0 && seqLT(start, end) {
		if span := end - start; n > span {
			n = span
		}
	}
	if n > c.mss {
		n = c.mss
	}
	c.stats.Retransmits++
	c.cancelRTT()
	pay0, pay1 := c.sndBuf.peek(int(offset), int(n))
	c.mgr.sendSegment(t, c.localPort, c.remoteAddr, c.remotePort, start, c.rcv.nxt, view.TCPAck|view.TCPPsh, c.wireRcvWnd(), nil, pay0, pay1)
	return n
}

// sackRexmit retransmits the next scoreboard hole during recovery (the
// selective-repeat half of RFC 6675, simplified to one hole per ACK event).
// rexmitHint walks forward through the holes; once it passes the last one, a
// rescue retransmission of the front hole is allowed only when the peer has
// SACKed data sent after that hole's last retransmission — on FIFO links the
// overtake proves the retransmission was lost, so recovery repairs it from
// the continuing dup-ACK stream instead of stalling until the RTO.
func (c *Conn) sackRexmit(t *sim.Task) {
	if c.sb.n == 0 {
		return
	}
	hint := c.rexmitHint
	if seqLT(hint, c.snd.una) {
		hint = c.snd.una
	}
	start, end, ok := c.sb.nextHole(hint)
	if !ok && seqGT(hint, c.snd.una) && seqGT(c.sb.r[c.sb.n-1].end, c.rescueSeq) {
		start, end, ok = c.sb.nextHole(c.snd.una)
	}
	if !ok {
		return
	}
	if n := c.retransmitHole(t, start, end); n > 0 {
		c.rexmitHint = start + n
		if start == c.snd.una {
			c.rescueSeq = c.snd.max
		}
		c.stats.SackRexmits++
		c.mgr.stats.SackRexmits++
		c.armRexmit()
	}
}

// --- teardown ---

// teardown destroys the TCB: timers stopped, guard uninstalled, demux entry
// removed. err is reported through App.Closed (nil = orderly); cause is what
// the audit plane records for the final transition to CLOSED.
func (c *Conn) teardown(err error, cause Cause) {
	if c.dead {
		return
	}
	c.dead = true
	c.setState(StateClosed, cause)
	c.disarmRexmit()
	c.ackTimer.Stop()
	c.twTimer.Stop()
	c.paceTimer.Stop()
	c.disarmPersist()
	c.releaseSndBuf()
	c.mgr.host.Disp.Uninstall(c.binding)
	c.mgr.dropConn(c)
	if c.app != nil {
		c.app.Closed(err)
	}
}

// dropConn takes c off its port count and connList. Once nil slots
// outnumber TCBs the list closes up: teardown is amortised O(1).
func (m *Manager) dropConn(c *Conn) {
	if n := m.portConns[c.localPort]; n > 1 {
		m.portConns[c.localPort] = n - 1
	} else {
		delete(m.portConns, c.localPort)
	}
	m.connList[c.slot] = nil
	if m.liveConns--; len(m.connList) <= 2*m.liveConns {
		return
	}
	live := m.connList[:0]
	for _, lc := range m.connList {
		if lc != nil {
			lc.slot = len(live)
			live = append(live, lc)
		}
	}
	clear(m.connList[len(live):])
	m.connList = live
}

// enterTimeWait schedules the final teardown after 2*MSL. cause is the
// segment that drove the transition into TIME-WAIT.
func (c *Conn) enterTimeWait(cause Cause) {
	c.setState(StateTimeWait, cause)
	c.disarmRexmit()
	c.releaseSndBuf()
	c.rearmTimeWait()
}

// releaseSndBuf hands an empty send ring's storage to the manager's pool.
// The connection sends nothing more: TIME-WAIT and CLOSED refuse Send, and
// everything sent has been acknowledged.
func (c *Conn) releaseSndBuf() {
	if c.sndBuf.len() == 0 {
		c.mgr.keepRing(c.sndBuf.buf)
		c.sndBuf = byteRing{}
	}
}

// rearmTimeWait (re)starts the 2*MSL timer. A retransmitted FIN arriving in
// TIME-WAIT restarts it (RFC 793 p.73); only its expiry may leave the state.
func (c *Conn) rearmTimeWait() {
	c.twTimer.Stop()
	c.twTimer = c.mgr.host.Sim.AfterArg(2*msl, "tcp-timewait", timeWaitFire, c)
}

// --- receiver flow control and the persist timer ---

// updateRcvWnd recomputes the advertised window from buffered, undelivered
// data.
func (c *Conn) updateRcvWnd() {
	used := uint32(len(c.rcvBuf))
	if used >= c.rcvWndCap {
		c.rcv.wnd = 0
	} else {
		c.rcv.wnd = c.rcvWndCap - used
	}
}

// SetRecvPaused pauses or resumes delivery to the application. While paused,
// in-order data queues in the connection's receive buffer and the advertised
// window closes toward zero — the receiver-side backpressure that forces the
// peer into zero-window persist mode. Resuming flushes the buffer to App.Recv
// and sends a window update.
func (c *Conn) SetRecvPaused(t *sim.Task, paused bool) {
	if c.paused == paused || c.dead {
		c.paused = paused
		return
	}
	c.paused = paused
	if paused {
		return
	}
	// Resume: flush buffered bytes to the application and reopen the
	// window with an immediate ACK (window update).
	data := c.rcvBuf
	c.rcvBuf = nil
	c.updateRcvWnd()
	if len(data) > 0 && c.app != nil {
		c.app.Recv(t, data)
	}
	c.sendACK(t)
}

// RecvBuffered reports bytes held for a paused application.
func (c *Conn) RecvBuffered() int { return len(c.rcvBuf) }

// armPersist starts (or continues) the zero-window probe timer.
func (c *Conn) armPersist() {
	if c.persistTimer.Pending() {
		return
	}
	d := persistInterval << c.persistShift
	if d > maxPersistInterval {
		d = maxPersistInterval
	}
	c.persistTimer = c.mgr.host.Sim.AfterArg(d, "tcp-persist", persistFire, c)
}

func (c *Conn) disarmPersist() {
	c.persistTimer.Stop()
	c.persistTimer = sim.Timer{}
	c.persistShift = 0
}

// sendWindowProbe forces output while persisting (RFC 1122 4.2.2.17 and
// BSD's t_force): if the window permits any bytes, send them despite
// sender-SWS avoidance; against a fully closed window, send one byte beyond
// it. Either way the peer answers with an ACK carrying its current window,
// so a lost window update cannot deadlock the connection.
func (c *Conn) sendWindowProbe(t *sim.Task) {
	offset := c.snd.nxt - c.snd.una
	if offset >= uint32(c.sndBuf.len()) {
		return // nothing left to probe with
	}
	avail := uint32(c.sndBuf.len()) - offset
	if w := c.usableWindow(); w >= c.mss || w >= avail {
		// The window reopened; transmit normally.
		c.output(t)
		return
	}
	n := c.usableWindow()
	inWindow := n > 0
	if n == 0 {
		n = 1 // true zero-window probe: one byte beyond the window
	}
	if n > avail {
		n = avail
	}
	if n > c.mss {
		n = c.mss
	}
	c.stats.WindowProbes++
	c.stats.SegsSent++
	pay0, pay1 := c.sndBuf.peek(int(offset), int(n))
	c.mgr.sendSegment(t, c.localPort, c.remoteAddr, c.remotePort, c.snd.nxt, c.rcv.nxt, view.TCPAck|view.TCPPsh, c.wireRcvWnd(), nil, pay0, pay1)
	if inWindow {
		// A forced in-window send is real transmission: it advances
		// snd.nxt and is covered by the retransmission timer.
		c.snd.nxt += n
		c.bumpSndMax()
		c.stats.BytesSent += uint64(n)
		c.armRexmit()
	}
	if c.persistShift < 5 {
		c.persistShift++
	}
	c.armPersist()
}

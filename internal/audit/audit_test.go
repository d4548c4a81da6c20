package audit

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"plexus/internal/seqpkt"
	"plexus/internal/sim"
	"plexus/internal/tcp"
	"plexus/internal/view"
)

var (
	ipA = view.IP4{10, 0, 0, 1}
	ipB = view.IP4{10, 0, 0, 2}
)

func ev(old, new tcp.State, cause tcp.Cause) tcp.Transition {
	return tcp.Transition{
		At:         sim.Time(1500),
		Host:       "hostA",
		LocalAddr:  ipA,
		LocalPort:  4096,
		RemoteAddr: ipB,
		RemotePort: 7,
		Old:        old,
		New:        new,
		Cause:      cause,
	}
}

func segC(flags uint8, seq, ack uint32) tcp.Cause {
	return tcp.Cause{Kind: tcp.CauseSegment, Flags: flags, Seq: seq, Ack: ack}
}

func userC(detail string) tcp.Cause  { return tcp.Cause{Kind: tcp.CauseUser, Detail: detail} }
func timerC(detail string) tcp.Cause { return tcp.Cause{Kind: tcp.CauseTimer, Detail: detail} }

func TestLegalTable(t *testing.T) {
	legalCases := []struct {
		old, new tcp.State
		cause    tcp.Cause
	}{
		{tcp.StateClosed, tcp.StateSynSent, userC(tcp.CauseConnect)},
		{tcp.StateClosed, tcp.StateListen, userC(tcp.CauseListen)},
		{tcp.StateListen, tcp.StateSynRcvd, segC(view.TCPSyn, 100, 0)},
		{tcp.StateSynSent, tcp.StateEstablished, segC(view.TCPSyn|view.TCPAck, 200, 101)},
		{tcp.StateSynSent, tcp.StateClosed, segC(view.TCPRst|view.TCPAck, 0, 101)},
		{tcp.StateSynSent, tcp.StateClosed, timerC(tcp.CauseRTO)},
		{tcp.StateSynRcvd, tcp.StateEstablished, segC(view.TCPAck, 101, 201)},
		{tcp.StateEstablished, tcp.StateFinWait1, userC(tcp.CauseClose)},
		{tcp.StateEstablished, tcp.StateCloseWait, segC(view.TCPFin|view.TCPAck, 300, 400)},
		{tcp.StateEstablished, tcp.StateClosed, segC(view.TCPRst, 300, 0)},
		{tcp.StateFinWait1, tcp.StateFinWait2, segC(view.TCPAck, 300, 401)},
		// A retransmitted FIN+ACK that acks our FIN: ACK processing fires
		// first, so the edge's triggering segment carries FIN legitimately.
		{tcp.StateFinWait1, tcp.StateFinWait2, segC(view.TCPFin|view.TCPAck, 300, 401)},
		{tcp.StateFinWait1, tcp.StateClosing, segC(view.TCPFin|view.TCPAck, 300, 400)},
		{tcp.StateFinWait1, tcp.StateTimeWait, segC(view.TCPFin|view.TCPAck, 300, 401)},
		{tcp.StateFinWait2, tcp.StateTimeWait, segC(view.TCPFin|view.TCPAck, 300, 401)},
		{tcp.StateCloseWait, tcp.StateLastAck, userC(tcp.CauseClose)},
		{tcp.StateClosing, tcp.StateTimeWait, segC(view.TCPFin|view.TCPAck, 300, 401)},
		{tcp.StateLastAck, tcp.StateClosed, segC(view.TCPAck, 301, 402)},
		{tcp.StateTimeWait, tcp.StateClosed, timerC(tcp.Cause2MSL)},
	}
	for _, tc := range legalCases {
		if ok, reason := Legal(tc.old, tc.new, tc.cause); !ok {
			t.Errorf("Legal(%v, %v, %+v) = illegal (%s); want legal", tc.old, tc.new, tc.cause, reason)
		}
	}

	illegalCases := []struct {
		name     string
		old, new tcp.State
		cause    tcp.Cause
	}{
		{"no such edge", tcp.StateClosed, tcp.StateEstablished, segC(view.TCPAck, 0, 0)},
		{"handshake skip", tcp.StateListen, tcp.StateEstablished, segC(view.TCPAck, 0, 0)},
		{"SYN-SENT needs SYN|ACK not bare ACK", tcp.StateSynSent, tcp.StateEstablished, segC(view.TCPAck, 0, 101)},
		{"SYN-SENT to ESTABLISHED with RST set", tcp.StateSynSent, tcp.StateEstablished, segC(view.TCPSyn|view.TCPAck|view.TCPRst, 200, 101)},
		{"passive open needs SYN without ACK", tcp.StateListen, tcp.StateSynRcvd, segC(view.TCPSyn|view.TCPAck, 100, 1)},
		{"CLOSE-WAIT via close only", tcp.StateCloseWait, tcp.StateLastAck, userC(tcp.CauseAbort)},
		{"TIME-WAIT exits only via 2msl timer", tcp.StateTimeWait, tcp.StateClosed, segC(view.TCPRst, 300, 0)},
		{"TIME-WAIT exits only via 2msl detail", tcp.StateTimeWait, tcp.StateClosed, timerC(tcp.CauseRTO)},
		{"FIN-WAIT-1 to CLOSING needs FIN", tcp.StateFinWait1, tcp.StateClosing, segC(view.TCPAck, 300, 400)},
		{"forced transition never legal", tcp.StateEstablished, tcp.StateListen, userC(tcp.CauseForce)},
		{"no recorded cause never legal", tcp.StateEstablished, tcp.StateFinWait1, tcp.Cause{}},
		{"timer cannot drive handshake", tcp.StateSynSent, tcp.StateEstablished, timerC(tcp.CauseRTO)},
	}
	for _, tc := range illegalCases {
		if ok, _ := Legal(tc.old, tc.new, tc.cause); ok {
			t.Errorf("%s: Legal(%v, %v, %+v) = legal; want illegal", tc.name, tc.old, tc.new, tc.cause)
		}
	}
}

func TestCheckerRetainsViolationContext(t *testing.T) {
	c := NewChecker(nil)
	c.Transition(ev(tcp.StateClosed, tcp.StateSynSent, userC(tcp.CauseConnect)))
	forced := ev(tcp.StateEstablished, tcp.StateListen, userC(tcp.CauseForce))
	c.Transition(forced)

	if got := c.Events(); got != 2 {
		t.Fatalf("Events() = %d, want 2", got)
	}
	if got := c.ViolationCount(); got != 1 {
		t.Fatalf("ViolationCount() = %d, want 1", got)
	}
	v := c.Violations()[0]
	if v.Event != forced {
		t.Errorf("retained event = %+v, want the forced transition with full context", v.Event)
	}
	if !strings.Contains(v.Reason, "ESTABLISHED") || !strings.Contains(v.Reason, "LISTEN") {
		t.Errorf("reason %q does not name the illegal edge", v.Reason)
	}
	if !strings.Contains(v.Reason, tcp.CauseForce) {
		t.Errorf("reason %q does not name the forced cause", v.Reason)
	}
}

func TestCheckerRetentionBounded(t *testing.T) {
	c := NewChecker(nil)
	bad := ev(tcp.StateClosed, tcp.StateEstablished, tcp.Cause{})
	for i := 0; i < maxViolations+10; i++ {
		c.Transition(bad)
	}
	if got := c.ViolationCount(); got != uint64(maxViolations+10) {
		t.Errorf("ViolationCount() = %d, want %d", got, maxViolations+10)
	}
	if got := len(c.Violations()); got != maxViolations {
		t.Errorf("len(Violations()) = %d, want %d", got, maxViolations)
	}
}

func TestCheckerForwards(t *testing.T) {
	var as AssertSink
	c := NewChecker(&as)
	c.Transition(ev(tcp.StateClosed, tcp.StateSynSent, userC(tcp.CauseConnect)))
	if len(as.Events) != 1 {
		t.Fatalf("downstream sink saw %d events, want 1", len(as.Events))
	}
}

func TestJSONLSinkDeterministicLines(t *testing.T) {
	events := []tcp.Transition{
		ev(tcp.StateClosed, tcp.StateSynSent, userC(tcp.CauseConnect)),
		ev(tcp.StateSynSent, tcp.StateEstablished, segC(view.TCPSyn|view.TCPAck, 200, 101)),
		ev(tcp.StateTimeWait, tcp.StateClosed, timerC(tcp.Cause2MSL)),
	}
	var a, b bytes.Buffer
	ja, jb := NewJSONLSink(&a), NewJSONLSink(&b)
	for _, e := range events {
		ja.Transition(e)
		jb.Transition(e)
	}
	if ja.Err() != nil || jb.Err() != nil {
		t.Fatalf("unexpected write error: %v / %v", ja.Err(), jb.Err())
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("identical event streams encoded differently:\n%s\nvs\n%s", a.String(), b.String())
	}
	lines := strings.Split(strings.TrimRight(a.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	want := `{"at":1500,"host":"hostA","local":"10.0.0.1:4096","remote":"10.0.0.2:7","old":"SYN-SENT","new":"ESTABLISHED","cause":"segment","flags":"SYN|ACK","seq":200,"ack":101}`
	if lines[1] != want {
		t.Errorf("segment line:\n got %s\nwant %s", lines[1], want)
	}
	wantTimer := `{"at":1500,"host":"hostA","local":"10.0.0.1:4096","remote":"10.0.0.2:7","old":"TIME-WAIT","new":"CLOSED","cause":"timer","detail":"2msl"}`
	if lines[2] != wantTimer {
		t.Errorf("timer line:\n got %s\nwant %s", lines[2], wantTimer)
	}
	if ja.Lines() != 3 {
		t.Errorf("Lines() = %d, want 3", ja.Lines())
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }

func TestJSONLSinkStickyError(t *testing.T) {
	j := NewJSONLSink(failWriter{})
	j.Transition(ev(tcp.StateClosed, tcp.StateSynSent, userC(tcp.CauseConnect)))
	j.Transition(ev(tcp.StateClosed, tcp.StateSynSent, userC(tcp.CauseConnect)))
	if j.Err() != io.ErrClosedPipe {
		t.Fatalf("Err() = %v, want %v", j.Err(), io.ErrClosedPipe)
	}
	if j.Lines() != 0 {
		t.Fatalf("Lines() = %d, want 0 after write failure", j.Lines())
	}
}

func TestAssertSinkPath(t *testing.T) {
	var as AssertSink
	as.Transition(ev(tcp.StateClosed, tcp.StateSynSent, userC(tcp.CauseConnect)))
	as.Transition(ev(tcp.StateSynSent, tcp.StateEstablished, segC(view.TCPSyn|view.TCPAck, 200, 101)))
	as.Transition(ev(tcp.StateEstablished, tcp.StateFinWait1, userC(tcp.CauseClose)))
	got := as.PathString(ipA, 4096, ipB, 7)
	want := "CLOSED>SYN-SENT>ESTABLISHED>FIN-WAIT-1"
	if got != want {
		t.Fatalf("PathString = %q, want %q", got, want)
	}
	if p := as.Path(ipB, 7, ipA, 4096); p != nil {
		t.Fatalf("Path for unseen endpoint = %v, want nil", p)
	}
}

func TestTeeFansOut(t *testing.T) {
	var a, b AssertSink
	tee := Tee{&a, &b}
	tee.Transition(ev(tcp.StateClosed, tcp.StateSynSent, userC(tcp.CauseConnect)))
	if len(a.Events) != 1 || len(b.Events) != 1 {
		t.Fatalf("tee fan-out: %d / %d events, want 1 / 1", len(a.Events), len(b.Events))
	}
}

// Both checkers and the JSONL sink sit on the transports' emission paths in
// storms; none may allocate per legal event.
func TestSinkSteadyStateAllocs(t *testing.T) {
	legal := ev(tcp.StateClosed, tcp.StateSynSent, userC(tcp.CauseConnect))
	j := NewJSONLSink(io.Discard)
	j.Transition(legal) // warm the buffer
	if n := testing.AllocsPerRun(200, func() { j.Transition(legal) }); n != 0 {
		t.Errorf("JSONLSink.Transition allocates %.1f per event, want 0", n)
	}
	c := NewChecker(j)
	if n := testing.AllocsPerRun(200, func() { c.Transition(legal) }); n != 0 {
		t.Errorf("Checker.Transition allocates %.1f per legal event, want 0", n)
	}
	s := NewSPPChecker(nil)
	sent := sppEv(seqpkt.XferUnsent, seqpkt.XferSent, seqpkt.CauseSend)
	if n := testing.AllocsPerRun(200, func() { s.Transition(sent) }); n != 0 {
		t.Errorf("SPPChecker.Transition allocates %.1f per legal event, want 0", n)
	}
}

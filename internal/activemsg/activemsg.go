// Package activemsg implements active messages over Ethernet, the paper's
// §3.3 example of an application-specific protocol that runs at interrupt
// level: "a protocol that does little more than reference memory and reply
// with an acknowledgement".
//
// The extension mirrors the paper's Figure 2: it installs a guard/handler
// pair on Ethernet.PacketRecv through the Ethernet protocol manager. The
// guard discriminates on the Ethernet type field; the handler is EPHEMERAL
// and may be installed with a time allotment, after which the dispatcher
// prematurely terminates it.
//
// An active message names a handler index and carries arguments; the
// receiving extension invokes the registered handler function directly in
// the interrupt and (for request messages) sends the reply from the same
// context — the lowest-latency path the architecture offers.
package activemsg

import (
	"errors"
	"fmt"

	"plexus/internal/ether"
	"plexus/internal/event"
	"plexus/internal/mbuf"
	"plexus/internal/osmodel"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// Wire format: Ethernet header, then
//
//	type    uint8  (request / reply)
//	handler uint8  (handler table index)
//	seq     uint16
//	arg     uint32
//	payload ...
const (
	hdrLen = 8

	typeRequest = 1
	typeReply   = 2
)

// MaxHandlers bounds the handler table.
const MaxHandlers = 16

// Errors.
var (
	// ErrBadHandler reports a handler index out of range or unregistered.
	ErrBadHandler = errors.New("activemsg: bad handler index")
	// ErrTooBig reports a payload exceeding the device MTU.
	ErrTooBig = errors.New("activemsg: payload exceeds MTU")
)

// Handler processes one incoming active message and returns the reply
// argument. Handlers run at interrupt level and must behave ephemerally:
// reference memory, compute, return.
type Handler func(t *sim.Task, seq uint16, arg uint32, payload []byte) (replyArg uint32)

// ReplyFunc observes a reply to a request this node sent.
type ReplyFunc func(t *sim.Task, seq uint16, arg uint32)

// Stats counts active-message traffic.
type Stats struct {
	RequestsSent uint64
	RequestsRcvd uint64
	RepliesSent  uint64
	RepliesRcvd  uint64
	BadMessages  uint64
}

// AM is the active-message extension instance on one host.
type AM struct {
	eth     *ether.Layer
	pool    *mbuf.Pool
	binding *event.Binding

	handlers [MaxHandlers]Handler
	onReply  ReplyFunc
	seq      uint16
	stats    Stats
}

// handlerCost is charged per handler invocation, modelling the message
// handler's memory references.
const handlerCost = 5 * sim.Microsecond

// New installs the active-message extension on the host's Ethernet manager.
// allotment, when nonzero, bounds each invocation (the §3.3 time limit).
// Handlers are charged handlerCost, not an entry of costs, which nothing reads.
func New(eth *ether.Layer, pool *mbuf.Pool, costs osmodel.Costs, allotment sim.Time) (*AM, error) {
	am := &AM{eth: eth, pool: pool}
	// The guard of Figure 2: dispatch on the Ethernet type field, via a
	// typed view of the header.
	guard := ether.TypeGuard(view.EtherTypeActiveMsg)
	b, err := eth.InstallRecv(guard, event.Ephemeral("activemsg.handler", am.input), allotment)
	if err != nil {
		return nil, fmt.Errorf("activemsg: %w", err)
	}
	am.binding = b
	return am, nil
}

// Register binds a handler function to index idx.
func (am *AM) Register(idx int, h Handler) error {
	if idx < 0 || idx >= MaxHandlers {
		return ErrBadHandler
	}
	am.handlers[idx] = h
	return nil
}

// OnReply registers the reply observer.
func (am *AM) OnReply(f ReplyFunc) { am.onReply = f }

// Stats returns a snapshot of counters.
func (am *AM) Stats() Stats { return am.stats }

// Binding exposes the event binding (tests observe termination counts).
func (am *AM) Binding() *event.Binding { return am.binding }

// Send transmits an active message request to the node with hardware address
// dst, invoking handler idx there.
func (am *AM) Send(t *sim.Task, dst view.MAC, idx int, arg uint32, payload []byte) (uint16, error) {
	if idx < 0 || idx >= MaxHandlers {
		return 0, ErrBadHandler
	}
	if hdrLen+len(payload) > am.eth.MTU() {
		return 0, ErrTooBig
	}
	am.seq++
	seq := am.seq
	am.stats.RequestsSent++
	return seq, am.transmit(t, dst, typeRequest, uint8(idx), seq, arg, payload)
}

func (am *AM) transmit(t *sim.Task, dst view.MAC, typ, idx uint8, seq uint16, arg uint32, payload []byte) error {
	buf := make([]byte, hdrLen+len(payload))
	buf[0] = typ
	buf[1] = idx
	buf[2] = byte(seq >> 8)
	buf[3] = byte(seq)
	buf[4] = byte(arg >> 24)
	buf[5] = byte(arg >> 16)
	buf[6] = byte(arg >> 8)
	buf[7] = byte(arg)
	copy(buf[hdrLen:], payload)
	m := am.pool.FromBytes(buf, 32)
	return am.eth.Send(t, dst, view.EtherTypeActiveMsg, m)
}

// input runs in the network interrupt for every frame the guard accepted.
func (am *AM) input(t *sim.Task, m *mbuf.Mbuf) {
	defer m.Free()
	frame, err := m.CopyData(0, m.PktLen())
	if err != nil || len(frame) < view.EthernetHdrLen+hdrLen {
		am.stats.BadMessages++
		return
	}
	eth, _ := view.Ethernet(frame)
	b := frame[view.EthernetHdrLen:]
	typ, idx := b[0], b[1]
	seq := uint16(b[2])<<8 | uint16(b[3])
	arg := uint32(b[4])<<24 | uint32(b[5])<<16 | uint32(b[6])<<8 | uint32(b[7])
	payload := b[hdrLen:]
	t.Charge(handlerCost)
	switch typ {
	case typeRequest:
		am.stats.RequestsRcvd++
		h := am.handlers[idx]
		if h == nil {
			am.stats.BadMessages++
			return
		}
		replyArg := h(t, seq, arg, payload)
		am.stats.RepliesSent++
		// Reply directly from the interrupt context (paper §3.3).
		if err := am.transmit(t, eth.Src(), typeReply, idx, seq, replyArg, nil); err != nil {
			am.stats.BadMessages++
		}
	case typeReply:
		am.stats.RepliesRcvd++
		if am.onReply != nil {
			am.onReply(t, seq, arg)
		}
	default:
		am.stats.BadMessages++
	}
}

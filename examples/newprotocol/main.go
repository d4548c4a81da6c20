// Defining a NEW protocol (the paper's headline): SPP, a reliable sequenced
// packet protocol with its own IP protocol number, is installed into the
// kernel protocol graph at runtime, right beside UDP and TCP. The example
// streams datagrams through 25% packet loss and shows exactly-once, in-order
// delivery — semantics no built-in protocol offers — then removes nothing
// else in the system to do it.
package main

import (
	"fmt"
	"log"

	"plexus/internal/fault"
	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/plexus"
	"plexus/internal/seqpkt"
	"plexus/internal/sim"
	"plexus/internal/view"
)

func main() {
	net, a, b, err := plexus.TwoHosts(21, netdev.EthernetModel(),
		plexus.HostSpec{Name: "a", Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt},
		plexus.HostSpec{Name: "b", Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt})
	if err != nil {
		log.Fatal(err)
	}

	// Install the application-defined protocol on both hosts. This is the
	// same act as installing UDP or TCP: an entry on IP.PacketRecv keyed to
	// the new protocol number, a manager for endpoint rights.
	install := func(st *plexus.Stack) *seqpkt.Manager {
		m, err := seqpkt.Install(seqpkt.Config{
			Sim: st.Host.Sim, IP: st.IP, Disp: st.Host.Disp,
			Raise: st.Raiser(), CPU: st.Host.CPU, Pool: st.Host.Pool,
			Costs: st.Host.Costs, RequireEphemeral: st.InterruptMode(),
		})
		if err != nil {
			log.Fatal(err)
		}
		return m
	}
	ma, mb := install(a), install(b)
	fmt.Printf("SPP (IP protocol %d) installed on both hosts at runtime\n", seqpkt.IPProto)

	// 25% loss in both directions, via the fault-injection plane.
	in := fault.Attach(net.Sim, net.Link)
	in.Lose(&fault.EveryNth{N: 4})

	delivered := 0
	if _, err := mb.Open(40, func(t *sim.Task, seq uint32, data []byte, src view.IP4, srcPort uint16) {
		delivered++
		if seq <= 3 || int(seq) == delivered && delivered%10 == 0 {
			fmt.Printf("  delivered #%d (%dB) in order at %v\n", seq, len(data), t.Now())
		}
	}); err != nil {
		log.Fatal(err)
	}
	tx, err := ma.Open(41, nil)
	if err != nil {
		log.Fatal(err)
	}
	const msgs = 30
	for i := 0; i < msgs; i++ {
		at := sim.Time(i) * 5 * sim.Millisecond
		a.SpawnAt(at, "send", func(t *sim.Task) {
			if _, err := tx.Send(t, b.Addr(), 40, make([]byte, 512)); err != nil {
				log.Fatal(err)
			}
		})
	}
	net.Sim.RunUntil(60 * sim.Second)

	fmt.Printf("\nsent %d datagrams through 25%% loss: %d delivered, in order, exactly once\n",
		msgs, delivered)
	fmt.Printf("sender: %d retransmits, %d acked; receiver absorbed %d duplicates\n",
		tx.Stats().Retransmits, tx.Stats().Acked, mb.Stats().Duplicates)
	fmt.Printf("UDP and TCP on the same hosts never saw a byte of it (tcp segs in: %d)\n",
		b.TCP.Stats().SegsIn)
}

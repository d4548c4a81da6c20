// Application-specific UDP (paper §1.1 and §2): two communicating
// applications agree to disable the UDP checksum — "a legitimate way to
// improve performance" for loss-tolerant media. The receiving extension is
// installed at runtime through the dynamic linker against a restricted
// logical protection domain; a rogue extension that names a privileged
// interface is rejected at link time; and unloading removes the endpoint,
// demonstrating the runtime-adaptation property.
package main

import (
	"fmt"
	"log"

	"plexus/internal/domain"
	"plexus/internal/mbuf"
	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/udp"
	"plexus/internal/view"
)

func main() {
	net, a, b, err := plexus.TwoHosts(11, netdev.EthernetModel(),
		plexus.HostSpec{Name: "a", Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt},
		plexus.HostSpec{Name: "b", Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt})
	if err != nil {
		log.Fatal(err)
	}

	// The receiving extension arrives as a partially resolved object: it
	// imports the UDP manager interface and the packet-buffer pool,
	// nothing else. The endpoint it opens belongs to the extension.
	received := 0
	ext, err := b.InstallExtension(plexus.ExtensionSpec{
		Name:    "audio-receiver",
		Imports: []domain.Symbol{"UDP.Manager", "Mbuf.Pool"},
		Install: func(ctx *plexus.ExtensionCtx) error {
			mgr, _ := ctx.Resolve("UDP.Manager")
			ep, err := mgr.(*udp.Manager).Open(udp.EndpointOptions{
				Port:            5004,
				DisableChecksum: true, // integrity optional, by agreement
			}, func(t *sim.Task, payload *mbuf.Mbuf, src view.IP4, srcPort uint16) {
				received++
				payload.Free()
			})
			if err != nil {
				return err
			}
			ctx.OnUnload(ep.Close)
			return nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("audio-receiver linked into the kernel at runtime")

	// A rogue extension naming an interface outside its domain is
	// rejected at link time — this is the whole protection story.
	rogue := plexus.ExtensionSpec{
		Name:    "snooper",
		Imports: []domain.Symbol{"UDP.Manager", "Device.NIC", "Dispatcher.Install"},
	}
	if _, err := b.InstallExtension(rogue); err != nil {
		fmt.Printf("rogue extension rejected: %v\n", err)
	} else {
		log.Fatal("rogue extension linked; protection is broken")
	}

	// Stream ten checksum-free datagrams.
	sender, err := a.OpenUDP(plexus.UDPAppOptions{DisableChecksum: true}, nil)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		at := sim.Time(i) * 10 * sim.Millisecond
		a.SpawnAt(at, "send", func(t *sim.Task) {
			_ = sender.Send(t, b.Addr(), 5004, make([]byte, 320)) // 20ms of 16kHz audio
		})
	}
	net.Sim.RunUntil(200 * sim.Millisecond)
	fmt.Printf("received %d/10 checksum-free datagrams (UDP checksum field = 0 on the wire)\n", received)

	// Runtime adaptation: the application leaves, its extension unloads,
	// and the endpoint it installed goes with it.
	if _, err := ext.Unload(); err != nil {
		log.Fatal(err)
	}
	a.Spawn("late", func(t *sim.Task) { _ = sender.Send(t, b.Addr(), 5004, make([]byte, 320)) })
	net.Sim.RunUntil(300 * sim.Millisecond)
	fmt.Printf("after unload: still %d received; late datagram drew port-unreachable (%d sent by B)\n",
		received, b.ICMP.Stats().UnreachSent)
}

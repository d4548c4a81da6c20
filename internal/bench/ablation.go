package bench

import (
	"fmt"

	"plexus/internal/event"
	"plexus/internal/filter"
	"plexus/internal/mbuf"
	"plexus/internal/netdev"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/udp"
	"plexus/internal/view"
)

// This file implements the ablation experiments DESIGN.md calls out: design
// choices of the architecture measured in isolation.

// AblationRow is one measured configuration of an ablation.
type AblationRow struct {
	Name  string
	Value sim.Time
	Note  string
}

// SpoofPolicyAblation compares the §3.1 anti-spoofing policies: overwriting
// the source field versus verifying it, measured as the per-send cost of
// SendRaw under each policy (averaged over n sends).
func SpoofPolicyAblation(n int) ([]AblationRow, error) {
	return RunCells([]udp.SpoofPolicy{udp.Overwrite, udp.Verify}, func(policy udp.SpoofPolicy) (AblationRow, error) {
		net, client, server, err := twoHosts(netdev.EthernetModel(), SysPlexusInterrupt)
		if err != nil {
			return AblationRow{}, err
		}
		defer recordEvents(net.Sim)
		if _, err := server.OpenUDP(plexus.UDPAppOptions{Port: 9}, nil); err != nil {
			return AblationRow{}, err
		}
		ep, err := client.UDP.Open(udp.EndpointOptions{SpoofPolicy: policy}, nil)
		if err != nil {
			return AblationRow{}, err
		}
		var spent sim.Time
		client.Spawn("sender", func(t *sim.Task) {
			for i := 0; i < n; i++ {
				seg := client.Host.Pool.FromBytes(make([]byte, view.UDPHdrLen+8), 64)
				b, _ := seg.MutableBytes()
				uv, _ := view.UDP(b)
				uv.SetSrcPort(ep.Port()) // legitimate; Verify passes
				uv.SetDstPort(9)
				uv.SetLength(seg.PktLen())
				before := t.Charged()
				if err := ep.SendRaw(t, server.Addr(), seg); err != nil {
					return
				}
				spent += t.Charged() - before
			}
		})
		net.Sim.RunUntil(10 * sim.Second)
		name := "spoof-policy/overwrite"
		note := "manager stamps the source field"
		if policy == udp.Verify {
			name = "spoof-policy/verify"
			note = "manager checks the source field"
		}
		return AblationRow{Name: name, Value: spent / sim.Time(n), Note: note}, nil
	})
}

// echoOnce times one payload-byte UDP round trip between two Plexus hosts on
// Ethernet, against an echo service on server port 7. noChecksum turns the
// UDP checksum off at both ends; install, when non-nil, first loads whatever
// the ablation measures onto the server.
func echoOnce(payload int, noChecksum bool, install func(server *plexus.Stack) error) (sim.Time, error) {
	n, client, server, err := twoHosts(netdev.EthernetModel(), SysPlexusInterrupt)
	if err != nil {
		return 0, err
	}
	defer recordEvents(n.Sim)
	if install != nil {
		if err := install(server); err != nil {
			return 0, err
		}
	}
	var echo *plexus.UDPApp
	echo, err = server.OpenUDP(plexus.UDPAppOptions{Port: 7, DisableChecksum: noChecksum},
		func(t *sim.Task, data []byte, src view.IP4, srcPort uint16) {
			_ = echo.Send(t, src, srcPort, data)
		})
	if err != nil {
		return 0, err
	}
	var sentAt, gotAt sim.Time
	capp, err := client.OpenUDP(plexus.UDPAppOptions{DisableChecksum: noChecksum},
		func(t *sim.Task, data []byte, src view.IP4, srcPort uint16) {
			gotAt = t.Now()
		})
	if err != nil {
		return 0, err
	}
	client.Spawn("client", func(t *sim.Task) {
		sentAt = t.Now()
		_ = capp.Send(t, server.Addr(), 7, make([]byte, payload))
	})
	n.Sim.RunUntil(10 * sim.Second)
	if gotAt == 0 {
		return 0, fmt.Errorf("bench: no echo")
	}
	return gotAt - sentAt, nil
}

// ChecksumAblation compares UDP round-trip latency with the checksum enabled
// and disabled (the §1.1 application-specific variant), for a payload large
// enough that the per-byte cost shows.
func ChecksumAblation(payload int) ([]AblationRow, error) {
	results, err := RunCells([]bool{false, true}, func(off bool) (sim.Time, error) {
		return echoOnce(payload, off, nil)
	})
	if err != nil {
		return nil, fmt.Errorf("checksum ablation: %w", err)
	}
	return []AblationRow{
		{Name: fmt.Sprintf("udp-checksum/on (%dB)", payload), Value: results[0], Note: "standard UDP"},
		{Name: fmt.Sprintf("udp-checksum/off (%dB)", payload), Value: results[1], Note: "application-specific variant (§1.1)"},
	}, nil
}

// GuardChainAblation measures UDP echo RTT with extra endpoints installed,
// showing guard evaluation stays at procedure-call scale (the Openness
// property: extensions do not tax each other).
func GuardChainAblation(extraEndpoints []int) ([]AblationRow, error) {
	return RunCells(extraEndpoints, func(extra int) (AblationRow, error) {
		rtt, err := echoOnce(8, false, func(server *plexus.Stack) error {
			for i := 0; i < extra; i++ {
				if _, err := server.OpenUDP(plexus.UDPAppOptions{Port: uint16(3000 + i)}, nil); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return AblationRow{}, fmt.Errorf("guard chain with %d endpoints: %w", extra, err)
		}
		return AblationRow{
			Name:  fmt.Sprintf("guard-chain/%d-extra-endpoints", extra),
			Value: rtt,
			Note:  "UDP 8B RTT",
		}, nil
	})
}

// FilterBackendAblation compares the two guard implementations of
// internal/filter — native compiled closures (the typesafe-extension model)
// versus the interpreted packet-filter VM (§3.5's alternative firewall
// mechanism) — by installing `extra` rejecting filters of each kind on the
// server's Ethernet.PacketRecv and measuring an 8-byte UDP echo RTT.
func FilterBackendAblation(extra int) ([]AblationRow, error) {
	results, err := RunCells([]bool{false, true}, func(interpreted bool) (sim.Time, error) {
		return echoOnce(8, false, func(server *plexus.Stack) error {
			// Rejecting filters: no UDP traffic in this experiment uses
			// port 60000, so every filter evaluates and fails.
			const src = "ip.proto == 17 && udp.dport == 60000"
			for i := 0; i < extra; i++ {
				var guard event.Guard
				if interpreted {
					prog, err := filter.CompileInterpreted(src, filter.BaseEthernet)
					if err != nil {
						return err
					}
					guard = prog.Guard()
				} else {
					f, err := filter.Parse(src, filter.BaseEthernet)
					if err != nil {
						return err
					}
					guard = f.Guard()
				}
				if _, err := server.Ether.InstallRecv(guard,
					event.Ephemeral("filter-sink", func(t *sim.Task, m *mbuf.Mbuf) { m.Free() }), 0); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return nil, fmt.Errorf("filter backend with %d filters: %w", extra, err)
	}
	return []AblationRow{
		{Name: fmt.Sprintf("filter-backend/native×%d", extra), Value: results[0], Note: "compiled guards (typesafe extension)"},
		{Name: fmt.Sprintf("filter-backend/interpreted×%d", extra), Value: results[1], Note: "packet-filter VM (§3.5 alternative)"},
	}, nil
}

// ILPAblation measures the video client's CPU with and without integrated
// layer processing (paper §5.1: the client "is a good candidate for the
// integrated layer processing optimizations suggested by Clark").
func ILPAblation(streams int) ([]AblationRow, error) {
	results, err := RunCells([]bool{false, true}, func(ilp bool) (float64, error) {
		_, client, _, err := videoRun(SysPlexusInterrupt, streams, ilp, sim.Second)
		return client, err
	})
	if err != nil {
		return nil, err
	}
	toTime := func(u float64) sim.Time { return sim.Time(u * float64(sim.Second)) }
	return []AblationRow{
		{Name: fmt.Sprintf("video-client/two-pass (%d streams)", streams), Value: toTime(results[0]), Note: "CPU-seconds per second (utilization)"},
		{Name: fmt.Sprintf("video-client/ILP (%d streams)", streams), Value: toTime(results[1]), Note: "fused checksum+decompress+display [CT90]"},
	}, nil
}

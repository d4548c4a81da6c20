package plexus

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"plexus/internal/fault"
	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/sim"
)

// tcpAppRig is a client and a server host on one Ethernet, both on the
// given boundary.
func tcpAppRig(t *testing.T, p osmodel.Personality, d osmodel.DispatchMode) (*Network, *Stack, *Stack) {
	t.Helper()
	spec := func(name string) HostSpec { return HostSpec{Name: name, Personality: p, Dispatch: d} }
	n, client, server, err := TwoHosts(1, netdev.EthernetModel(), spec("client"), spec("server"))
	if err != nil {
		t.Fatal(err)
	}
	return n, client, server
}

// callLog records a TCPApp's callbacks in order.
type callLog []string

// opts returns callbacks that append to l; OnRecv then runs onRecv, if set,
// and OnPeerFin closes the connection.
func (l *callLog) opts(onRecv func(*sim.Task, *TCPApp)) TCPAppOptions {
	return TCPAppOptions{
		OnEstablished: func(*sim.Task, *TCPApp) { *l = append(*l, "established") },
		OnRecv: func(tk *sim.Task, c *TCPApp, data []byte) {
			*l = append(*l, "recv:"+string(data))
			if onRecv != nil {
				onRecv(tk, c)
			}
		},
		OnPeerFin: func(tk *sim.Task, c *TCPApp) {
			*l = append(*l, "peerfin")
			c.Close(tk)
		},
		OnClose: func(_ *TCPApp, err error) { *l = append(*l, fmt.Sprint("close:", err)) },
	}
}

// dropHandshakeAcks loses every segment to port 80 that is not a SYN: the
// final ACK of each handshake, and everything after it.
type dropHandshakeAcks struct{}

func (dropHandshakeAcks) Drop(_ *rand.Rand, wire []byte) bool {
	// Ethernet 14 B, IPv4 20 B; the TCP destination port sits 2 B into the
	// transport header and the flags 13 B.
	if len(wire) < 14+20+20 || binary.BigEndian.Uint16(wire[12:]) != 0x0800 || wire[14+9] != 6 {
		return false
	}
	tcp := wire[14+20:]
	return binary.BigEndian.Uint16(tcp[2:]) == 80 && tcp[13]&0x02 == 0
}

// Every boundary calls a connection's application in one order, each
// callback once: the listener's accept (passive side only), OnEstablished,
// OnRecv, OnPeerFin, then OnClose with a nil error. The client sends
// "ping", the server answers "pong" and closes, and each side closes on
// the peer's FIN. A passive TCB that dies in SYN-RECEIVED, because the
// final ACK never arrives, calls nothing at all.
func TestTCPAppCallbackContract(t *testing.T) {
	for _, b := range boundaries {
		for _, side := range []string{"active", "passive"} {
			t.Run(b.name+"/"+side, func(t *testing.T) {
				n, client, server := tcpAppRig(t, b.p, b.d)
				var active, passive callLog
				_, err := server.ListenTCP(80, passive.opts(func(tk *sim.Task, c *TCPApp) {
					if err := c.Send(tk, []byte("pong")); err != nil {
						t.Errorf("server send: %v", err)
					}
					c.Close(tk)
				}), func(*sim.Task, *TCPApp) { passive = append(passive, "accept") })
				if err != nil {
					t.Fatal(err)
				}
				opts := active.opts(nil)
				established := opts.OnEstablished
				opts.OnEstablished = func(tk *sim.Task, c *TCPApp) {
					established(tk, c)
					if err := c.Send(tk, []byte("ping")); err != nil {
						t.Errorf("client send: %v", err)
					}
				}
				client.Spawn("client", func(task *sim.Task) {
					if _, err := client.ConnectTCP(task, server.Addr(), 80, opts); err != nil {
						t.Errorf("connect: %v", err)
					}
				})
				n.Sim.RunUntil(5 * 60 * sim.Second)
				got, want := active, "established recv:pong peerfin close:<nil>"
				if side == "passive" {
					got, want = passive, "accept established recv:ping peerfin close:<nil>"
				}
				if s := strings.Join(got, " "); s != want {
					t.Errorf("callbacks %q, want %q", s, want)
				}
			})
		}
		t.Run(b.name+"/passive-dies-in-syn-received", func(t *testing.T) {
			n, client, server := tcpAppRig(t, b.p, b.d)
			fault.Attach(n.Sim, n.Link).Lose(dropHandshakeAcks{})
			var passive callLog
			_, err := server.ListenTCP(80, passive.opts(nil), func(*sim.Task, *TCPApp) { passive = append(passive, "accept") })
			if err != nil {
				t.Fatal(err)
			}
			client.Spawn("client", func(task *sim.Task) {
				if _, err := client.ConnectTCP(task, server.Addr(), 80, TCPAppOptions{}); err != nil {
					t.Errorf("connect: %v", err)
				}
			})
			n.Sim.RunUntil(sim.Second)
			if live := server.TCP.NumConns(); live != 1 {
				t.Fatalf("%d server TCBs after the SYN, want 1 in SYN-RECEIVED", live)
			}
			n.Sim.RunUntil(5 * 60 * sim.Second)
			if live := server.TCP.NumConns(); live != 0 {
				t.Fatalf("%d server TCBs once the SYN|ACK retries ran out, want 0", live)
			}
			if len(passive) != 0 {
				t.Errorf("a TCB that died in SYN-RECEIVED called %q", passive)
			}
		})
	}
}

// A server that writes or closes from its listener's accept — before the
// transport has processed the ACK that completed the handshake — loses no
// byte and still sends its FIN: the client reads every byte, sees the end
// of the stream, and both TCBs close cleanly.
func TestTCPAppWriteAndCloseInAccept(t *testing.T) {
	for _, b := range boundaries {
		for _, msg := range []string{"hello", ""} {
			name := b.name + "/send-close"
			if msg == "" {
				name = b.name + "/close"
			}
			t.Run(name, func(t *testing.T) {
				n, client, server := tcpAppRig(t, b.p, b.d)
				var serverErr error
				serverClosed := false
				_, err := server.ListenTCP(80, TCPAppOptions{
					OnClose: func(_ *TCPApp, err error) { serverClosed, serverErr = true, err },
				}, func(tk *sim.Task, c *TCPApp) {
					if msg != "" {
						if err := c.Send(tk, []byte(msg)); err != nil {
							t.Errorf("server send: %v", err)
						}
					}
					c.Close(tk)
				})
				if err != nil {
					t.Fatal(err)
				}
				var rcvd bytes.Buffer
				var clientLog callLog
				opts := clientLog.opts(nil)
				opts.OnRecv = func(_ *sim.Task, _ *TCPApp, data []byte) { rcvd.Write(data) }
				client.Spawn("client", func(task *sim.Task) {
					if _, err := client.ConnectTCP(task, server.Addr(), 80, opts); err != nil {
						t.Errorf("connect: %v", err)
					}
				})
				n.Sim.RunUntil(5 * 60 * sim.Second)
				if rcvd.String() != msg {
					t.Errorf("client read %q, want %q", rcvd.String(), msg)
				}
				if s, want := strings.Join(clientLog, " "), "established peerfin close:<nil>"; s != want {
					t.Errorf("client callbacks %q, want %q", s, want)
				}
				if !serverClosed || serverErr != nil {
					t.Errorf("server OnClose fired %v with %v, want fired with nil", serverClosed, serverErr)
				}
				for _, st := range []*Stack{client, server} {
					if live := st.TCP.NumConns(); live != 0 {
						t.Errorf("%s: %d TCBs left, want 0", st.Name(), live)
					}
				}
			})
		}
	}
}

// SetOptions on an active connection replaces every callback, not only
// OnRecv: callbacks set right after ConnectTCP are the ones that fire.
func TestTCPAppSetOptionsActive(t *testing.T) {
	for _, b := range boundaries {
		t.Run(b.name, func(t *testing.T) {
			n, client, server := tcpAppRig(t, b.p, b.d)
			_, err := server.ListenTCP(80, TCPAppOptions{}, func(_ *sim.Task, c *TCPApp) {
				// Close from a task of its own, once the handshake is done.
				server.Spawn("close", c.Close)
			})
			if err != nil {
				t.Fatal(err)
			}
			var old, replaced callLog
			client.Spawn("client", func(task *sim.Task) {
				app, err := client.ConnectTCP(task, server.Addr(), 80, old.opts(nil))
				if err != nil {
					t.Errorf("connect: %v", err)
					return
				}
				app.SetOptions(replaced.opts(nil))
			})
			n.Sim.RunUntil(5 * 60 * sim.Second)
			if len(old) != 0 {
				t.Errorf("replaced callbacks fired: %q", old)
			}
			if s, want := strings.Join(replaced, " "), "established peerfin close:<nil>"; s != want {
				t.Errorf("callbacks %q, want %q", s, want)
			}
		})
	}
}

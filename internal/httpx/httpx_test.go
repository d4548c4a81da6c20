package httpx

import (
	"bytes"
	"errors"
	"testing"

	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/tcp"
)

func twoHosts(t *testing.T, serverP osmodel.Personality) (*plexus.Network, *plexus.Stack, *plexus.Stack) {
	t.Helper()
	n, client, server, err := plexus.TwoHosts(1, netdev.EthernetModel(),
		plexus.HostSpec{Name: "client", Personality: osmodel.SPIN},
		plexus.HostSpec{Name: "server", Personality: serverP})
	if err != nil {
		t.Fatal(err)
	}
	return n, client, server
}

func handler(t *sim.Task, req *Request) Response {
	switch req.Path {
	case "/":
		return Response{Status: 200, Body: []byte("hello from plexus\n")}
	case "/big":
		return Response{Status: 200, Body: make([]byte, 20000)}
	default:
		return Response{Status: 404, Body: []byte("not found\n")}
	}
}

func TestHTTPGet(t *testing.T) {
	n, client, server := twoHosts(t, osmodel.SPIN)
	srv, err := Serve(server, 80, handler)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	var gotErr error
	calls := 0
	client.Spawn("get", func(task *sim.Task) {
		err := Get(task, client, server.Addr(), 80, "/", func(t2 *sim.Task, r Result, err error) {
			// Body is valid only during done.
			res, gotErr = r, err
			res.Body = bytes.Clone(r.Body)
			calls++
		})
		if err != nil {
			t.Errorf("get: %v", err)
		}
	})
	// Long enough for both ends' TIME-WAIT to expire: the orderly close
	// reaches OnClose too, and done must not run again.
	n.Sim.RunUntil(5 * 60 * sim.Second)
	if calls != 1 {
		t.Fatalf("done called %d times, want 1", calls)
	}
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if res.Status != 200 || string(res.Body) != "hello from plexus\n" {
		t.Fatalf("res = %d %q", res.Status, res.Body)
	}
	if res.Latency <= 0 {
		t.Error("no latency measured")
	}
	if srv.Stats().Requests != 1 {
		t.Errorf("server requests = %d", srv.Stats().Requests)
	}
}

func TestHTTPNotFound(t *testing.T) {
	n, client, server := twoHosts(t, osmodel.SPIN)
	if _, err := Serve(server, 80, handler); err != nil {
		t.Fatal(err)
	}
	var status int
	client.Spawn("get", func(task *sim.Task) {
		_ = Get(task, client, server.Addr(), 80, "/missing", func(t2 *sim.Task, r Result, err error) {
			status = r.Status
		})
	})
	n.Sim.RunUntil(5 * 60 * sim.Second)
	if status != 404 {
		t.Fatalf("status = %d", status)
	}
}

func TestHTTPLargeBodySpansSegments(t *testing.T) {
	n, client, server := twoHosts(t, osmodel.SPIN)
	if _, err := Serve(server, 80, handler); err != nil {
		t.Fatal(err)
	}
	var body []byte
	var gotErr error
	client.Spawn("get", func(task *sim.Task) {
		_ = Get(task, client, server.Addr(), 80, "/big", func(t2 *sim.Task, r Result, err error) {
			body, gotErr = bytes.Clone(r.Body), err
		})
	})
	n.Sim.RunUntil(5 * 60 * sim.Second)
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if len(body) != 20000 {
		t.Fatalf("body length = %d", len(body))
	}
}

func TestHTTPBadRequest(t *testing.T) {
	n, client, server := twoHosts(t, osmodel.SPIN)
	srv, err := Serve(server, 80, handler)
	if err != nil {
		t.Fatal(err)
	}
	var raw []byte
	client.Spawn("raw", func(task *sim.Task) {
		_, err := client.ConnectTCP(task, server.Addr(), 80, plexus.TCPAppOptions{
			OnEstablished: func(t2 *sim.Task, conn *plexus.TCPApp) {
				_ = conn.Send(t2, []byte("NONSENSE\r\n\r\n"))
			},
			OnRecv: func(t2 *sim.Task, conn *plexus.TCPApp, data []byte) {
				raw = append(raw, data...)
			},
			OnPeerFin: func(t2 *sim.Task, conn *plexus.TCPApp) { conn.Close(t2) },
		})
		if err != nil {
			t.Error(err)
		}
	})
	n.Sim.RunUntil(5 * 60 * sim.Second)
	const want = "HTTP/1.0 400 Bad Request\r\nContent-Type: text/plain\r\nContent-Length: 41\r\n\r\n" +
		"httpx: malformed request line \"NONSENSE\"\n"
	if string(raw) != want {
		t.Fatalf("raw = %q, want %q", raw, want)
	}
	if srv.Stats().BadRequests != 1 {
		t.Errorf("BadRequests = %d", srv.Stats().BadRequests)
	}
}

// The same server code runs as a monolithic user process; the SPIN extension
// answers faster.
func TestHTTPServerPersonalityLatency(t *testing.T) {
	measure := func(p osmodel.Personality) sim.Time {
		n, client, server := twoHosts(t, p)
		if _, err := Serve(server, 80, handler); err != nil {
			t.Fatal(err)
		}
		var lat sim.Time
		client.Spawn("get", func(task *sim.Task) {
			_ = Get(task, client, server.Addr(), 80, "/", func(t2 *sim.Task, r Result, err error) {
				lat = r.Latency
			})
		})
		n.Sim.RunUntil(5 * 60 * sim.Second)
		if lat == 0 {
			t.Fatal("no response")
		}
		return lat
	}
	spin := measure(osmodel.SPIN)
	dux := measure(osmodel.Monolithic)
	t.Logf("HTTP GET latency: SPIN server %v, DUX server %v", spin, dux)
	if dux <= spin {
		t.Errorf("monolithic server (%v) should be slower than SPIN (%v)", dux, spin)
	}
}

// Several clients fetch concurrently; HTTP/1.0 one-connection-per-request
// keeps them independent.
func TestHTTPConcurrentClients(t *testing.T) {
	n, client, server := twoHosts(t, osmodel.SPIN)
	if _, err := Serve(server, 80, handler); err != nil {
		t.Fatal(err)
	}
	results := map[string]int{}
	for i := 0; i < 8; i++ {
		path := "/"
		if i%2 == 1 {
			path = "/paper"
		}
		at := sim.Time(i) * 100 * sim.Microsecond // overlapping connections
		p := path
		client.SpawnAt(at, "get", func(task *sim.Task) {
			_ = Get(task, client, server.Addr(), 80, p, func(t2 *sim.Task, r Result, err error) {
				if err != nil {
					t.Errorf("GET %s: %v", p, err)
					return
				}
				results[p]++
			})
		})
	}
	n.Sim.RunUntil(5 * 60 * sim.Second)
	if results["/"] != 4 || results["/paper"] != 4 {
		t.Fatalf("results = %v", results)
	}
}

// A GET whose connection dies before the server's FIN still completes: here
// no one listens on the port, the SYN draws a reset, and done runs once with
// the close error.
func TestHTTPGetNoListener(t *testing.T) {
	n, client, server := twoHosts(t, osmodel.SPIN)
	calls := 0
	var gotErr error
	client.Spawn("get", func(task *sim.Task) {
		err := Get(task, client, server.Addr(), 81, "/", func(t2 *sim.Task, r Result, err error) {
			calls++
			gotErr = err
		})
		if err != nil {
			t.Errorf("get: %v", err)
		}
	})
	n.Sim.RunUntil(5 * 60 * sim.Second)
	if calls != 1 {
		t.Fatalf("done called %d times, want 1", calls)
	}
	if !errors.Is(gotErr, tcp.ErrReset) {
		t.Fatalf("error = %v, want %v", gotErr, tcp.ErrReset)
	}
}

// BenchmarkGet is one HTTP/1.0 GET of a 1 KiB body between two in-kernel
// hosts on one Ethernet — connect, request, response, close — timed on the
// host clock; ARP, the listener and the free lists are warmed first.
func BenchmarkGet(b *testing.B) {
	n, client, server, err := plexus.TwoHosts(1, netdev.EthernetModel(),
		plexus.HostSpec{Name: "client", Personality: osmodel.SPIN},
		plexus.HostSpec{Name: "server", Personality: osmodel.SPIN})
	if err != nil {
		b.Fatal(err)
	}
	body := make([]byte, 1024)
	if _, err := Serve(server, 80, func(*sim.Task, *Request) Response { return Response{Status: 200, Body: body} }); err != nil {
		b.Fatal(err)
	}
	got := 0
	fetch := func(t *sim.Task) {
		_ = Get(t, client, server.Addr(), 80, "/obj/01", func(_ *sim.Task, r Result, err error) {
			if err != nil || len(r.Body) != len(body) {
				b.Fatalf("GET: %v, %d bytes", err, len(r.Body))
			}
			got++
		})
	}
	get := func() {
		want := got + 1
		client.Spawn("get", fetch)
		for got < want {
			if !n.Sim.Step() {
				b.Fatal("simulation drained before the response arrived")
			}
		}
	}
	for i := 0; i < 64; i++ {
		get()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get()
	}
}

// A server that resets the connection right behind its FIN: done still runs
// once, whether the client handles the FIN inline (SPIN) or in a woken
// process that the reset overtakes (monolithic).
func TestHTTPGetFinThenReset(t *testing.T) {
	for _, p := range []osmodel.Personality{osmodel.SPIN, osmodel.Monolithic} {
		n, client, server, err := plexus.TwoHosts(1, netdev.EthernetModel(),
			plexus.HostSpec{Name: "client", Personality: p},
			plexus.HostSpec{Name: "server", Personality: osmodel.SPIN})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := server.ListenTCP(80, plexus.TCPAppOptions{
			OnRecv: func(tk *sim.Task, c *plexus.TCPApp, data []byte) {
				_ = c.Send(tk, []byte("HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nhi"))
				c.Close(tk)
				c.Conn().Abort(tk)
			},
		}, nil); err != nil {
			t.Fatal(err)
		}
		calls := 0
		client.Spawn("get", func(task *sim.Task) {
			_ = Get(task, client, server.Addr(), 80, "/", func(*sim.Task, Result, error) { calls++ })
		})
		n.Sim.RunUntil(5 * 60 * sim.Second)
		if calls != 1 {
			t.Errorf("%v client: done called %d times, want 1", p, calls)
		}
	}
}

// A request head split across segments is accumulated until its CRLFCRLF,
// then answered as if it had arrived whole.
func TestHTTPRequestSplitAcrossSegments(t *testing.T) {
	n, client, server := twoHosts(t, osmodel.SPIN)
	srv, err := Serve(server, 80, handler)
	if err != nil {
		t.Fatal(err)
	}
	var raw []byte
	client.Spawn("raw", func(task *sim.Task) {
		_, err := client.ConnectTCP(task, server.Addr(), 80, plexus.TCPAppOptions{
			OnEstablished: func(t2 *sim.Task, conn *plexus.TCPApp) {
				_ = conn.Send(t2, []byte("GET / HT"))
				client.SpawnAt(t2.Now()+sim.Millisecond, "rest", func(t3 *sim.Task) {
					_ = conn.Send(t3, []byte("TP/1.0\r\nHost: x\r\n"))
				})
				client.SpawnAt(t2.Now()+2*sim.Millisecond, "end", func(t3 *sim.Task) {
					_ = conn.Send(t3, []byte("\r\n"))
				})
			},
			OnRecv: func(t2 *sim.Task, conn *plexus.TCPApp, data []byte) {
				raw = append(raw, data...)
			},
			OnPeerFin: func(t2 *sim.Task, conn *plexus.TCPApp) { conn.Close(t2) },
		})
		if err != nil {
			t.Error(err)
		}
	})
	n.Sim.RunUntil(5 * 60 * sim.Second)
	const want = "HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 18\r\n\r\nhello from plexus\n"
	if string(raw) != want {
		t.Fatalf("raw = %q, want %q", raw, want)
	}
	if st := srv.Stats(); st.Requests != 1 || st.BadRequests != 0 {
		t.Errorf("stats = %+v", st)
	}
}

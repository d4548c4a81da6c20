package plexus_test

import (
	"testing"

	"plexus/internal/httpx"
	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/plexus"
	"plexus/internal/sim"
)

// maxGetAllocs is what one warm HTTP/1.0 GET allocates (67 before parsing
// and formatting worked in place and send rings were recycled, 33 before a
// TCPApp became its connection's tcp.App, 29 before the client recycled its
// response buffer). About 9 are simulator events: every GET leaves two
// TIME-WAIT timers pending for 60 simulated seconds, far longer than the
// test runs, so the event free list never refills. The rest are per
// connection — the TCB, its congestion controller, handler name and binding
// on both hosts, the TCPApp on both hosts, the growth of the tables
// TIME-WAIT fills — and per request: the GET's state and callbacks, the
// request-line string and the Request.
const maxGetAllocs = 28

// TestHTTPGetAllocs pins the allocations of one complete GET — connect,
// request, response, close — between two in-kernel hosts, once warm. It
// lives beside TestTCPSteadyStateAllocs in an external test package because
// httpx imports plexus.
func TestHTTPGetAllocs(t *testing.T) {
	spec := func(name string) plexus.HostSpec {
		return plexus.HostSpec{Name: name, Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt}
	}
	n, client, server, err := plexus.TwoHosts(1, netdev.EthernetModel(), spec("client"), spec("server"))
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1024)
	if _, err := httpx.Serve(server, 80, func(*sim.Task, *httpx.Request) httpx.Response {
		return httpx.Response{Status: 200, Body: body}
	}); err != nil {
		t.Fatal(err)
	}
	got := 0
	fetch := func(tk *sim.Task) {
		_ = httpx.Get(tk, client, server.Addr(), 80, "/obj/01", func(_ *sim.Task, r httpx.Result, err error) {
			if err != nil || r.Status != 200 || len(r.Body) != len(body) {
				t.Fatalf("GET: %v, status %d, %d bytes", err, r.Status, len(r.Body))
			}
			got++
		})
	}
	get := func() {
		want := got + 1
		client.Spawn("get", fetch)
		for got < want {
			if !n.Sim.Step() {
				t.Fatal("simulation drained before the response arrived")
			}
		}
	}
	// Warm up: ARP, the free lists, the pooled send rings and the
	// server's response buffer.
	for i := 0; i < 64; i++ {
		get()
	}
	if avg := testing.AllocsPerRun(100, get); avg > maxGetAllocs {
		t.Fatalf("a warm GET allocates %.2f objects, want at most %d", avg, maxGetAllocs)
	} else {
		t.Logf("a warm GET allocates %.2f objects", avg)
	}
}

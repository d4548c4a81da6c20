package workload

import (
	"bytes"
	"fmt"
	"math/rand"

	"plexus/internal/httpx"
	"plexus/internal/netdev"
	"plexus/internal/plexus"
	"plexus/internal/sim"
)

// http-churn sizes: four closed-loop clients fetch 1 KiB bodies over
// HTTP/1.0 from an in-kernel server on one shared Ethernet, a fresh
// connection per request. Connections linger in TIME-WAIT for 2·MSL = 60
// simulated seconds, longer than the run, so the server's guard chain grows
// with every request — the cost this workload exists to show.
const (
	httpClients = 4
	httpBody    = 1024
	httpObjects = 16
	httpSimTime = 3 * sim.Second
	httpDrain   = 500 * sim.Millisecond
)

type httpClient struct {
	st      *plexus.Stack
	id      int
	rig     *httpRig
	stop    sim.Time
	n       uint64
	pending bool
}

type httpRig struct {
	w       *world
	net     *plexus.Network
	server  *plexus.Stack
	rec     *recorder
	bodies  [httpObjects][]byte
	paths   [httpObjects]string
	clients []*httpClient
	lastAt  sim.Time
}

// issue starts the client's next GET; the completion verifies status, length
// and content, then issues again.
func (c *httpClient) issue(t *sim.Task) {
	if t.Now() >= c.stop {
		return
	}
	rig := c.rig
	obj := int((c.n*uint64(httpClients) + uint64(c.id)) % httpObjects)
	c.n++
	c.pending = true
	started := t.Now()
	rig.w.connsOpened++
	err := httpx.Get(t, c.st, rig.server.Addr(), 80, rig.paths[obj], func(t2 *sim.Task, r httpx.Result, err error) {
		c.pending = false
		switch {
		case err != nil:
			rig.rec.fail("%s: GET %s: %v", c.st.Name(), rig.paths[obj], err)
		case r.Status != 200:
			rig.rec.fail("%s: GET %s: status %d", c.st.Name(), rig.paths[obj], r.Status)
		case !bytes.Equal(r.Body, rig.bodies[obj]):
			rig.rec.fail("%s: GET %s: body of %d bytes differs", c.st.Name(), rig.paths[obj], len(r.Body))
		default:
			rig.rec.done(t2.Now()-started, len(r.Body), uint64(obj)<<32|uint64(r.Body[0]))
			rig.lastAt = t2.Now()
			rig.w.samplePending(rig.net.Sim)
		}
		c.issue(t2)
	})
	if err != nil {
		c.pending = false
		rig.rec.fail("%s: connect: %v", c.st.Name(), err)
	}
}

func buildHTTPChurn(p Params, rec *recorder, stop sim.Time) (*httpRig, error) {
	specs := []plexus.HostSpec{SpinHost("server")}
	for i := 0; i < httpClients; i++ {
		specs = append(specs, SpinHost(fmt.Sprintf("client%d", i)))
	}
	n, err := plexus.NewNetwork(p.Seed, netdev.EthernetModel(), specs)
	if err != nil {
		return nil, err
	}
	n.PrimeARP()
	server := n.Hosts[0]
	w := &world{sims: []*sim.Sim{n.Sim}, stacks: n.Hosts, servers: []*plexus.Stack{server}}
	if p.Sink != nil {
		w.attachAudit()
	}
	rig := &httpRig{w: w, net: n, server: server, rec: rec}
	byPath := map[string][]byte{}
	for i := range rig.bodies {
		rig.bodies[i] = make([]byte, httpBody)
		fillPattern(rig.bodies[i], p.Seed, uint64(100+i))
		rig.paths[i] = fmt.Sprintf("/obj/%02d", i)
		byPath[rig.paths[i]] = rig.bodies[i]
	}
	w.httpd, err = httpx.Serve(server, 80, func(t *sim.Task, req *httpx.Request) httpx.Response {
		body, ok := byPath[req.Path]
		if !ok {
			return httpx.Response{Status: 404}
		}
		return httpx.Response{Status: 200, Body: body}
	})
	if err != nil {
		return nil, err
	}
	// Clients start a quarter of a millisecond apart; the seed says in which
	// order. (Seeded random offsets put the four closed loops into one of two
	// phase-locked regimes, 5 % apart in latency, depending on the seed.)
	order := rand.New(rand.NewSource(p.Seed)).Perm(httpClients)
	for i, st := range n.Hosts[1:] {
		c := &httpClient{st: st, id: i, rig: rig, stop: stop}
		rig.clients = append(rig.clients, c)
		st.SpawnAt(sim.Time(order[i])*250*sim.Microsecond, "http-start", c.issue)
	}
	return rig, nil
}

func runHTTPChurn(p Params) (*Result, error) {
	stop := scaled(httpSimTime, p.Size, 100*sim.Millisecond)
	var rec *recorder
	rig, setup, err := timedSetup(128, func() (*httpRig, error) {
		rec = newRecorder(int(stop/sim.Millisecond)*httpClients + 16)
		return buildHTTPChurn(p, rec, stop)
	})
	if err != nil {
		return nil, err
	}
	w := rig.w
	w.install(p.Sink)
	run := measured{w: w, rec: rec, setup: setup}
	run.begin()
	rig.net.Sim.RunUntil(stop + httpDrain)
	run.end()
	run.window = rig.lastAt
	for _, c := range rig.clients {
		if c.pending {
			rec.fail("%s: GET still outstanding %v after the last issue", c.st.Name(), httpDrain)
		}
	}
	if run.window <= 0 {
		return nil, fmt.Errorf("http-churn: oracle could not run: no response completed")
	}
	return run.result(nil)
}

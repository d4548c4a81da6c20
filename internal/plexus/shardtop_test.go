package plexus

import (
	"reflect"
	"testing"

	"plexus/internal/netdev"
	"plexus/internal/osmodel"
	"plexus/internal/sim"
	"plexus/internal/stats"
	"plexus/internal/view"
)

func shardedPair(t *testing.T, seed int64) (*ShardedTopology, *Stack, *Stack) {
	t.Helper()
	spec := func(name string) HostSpec {
		return HostSpec{Name: name, Personality: osmodel.SPIN, Dispatch: osmodel.DispatchInterrupt}
	}
	gw := spec("gw")
	top, err := NewShardedTopology(seed, &gw, []SegmentSpec{
		{Name: "lan0", Model: netdev.EthernetModel(), Switched: true,
			Subnet: view.IP4{10, 0, 1, 0}, Hosts: []HostSpec{spec("server"), spec("client")}},
		{Name: "lan1", Model: netdev.EthernetModel(), Switched: true,
			Subnet: view.IP4{10, 0, 2, 0}, Hosts: []HostSpec{spec("remote")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	top.PrimeARPSparse()
	return top, hostNamed(top.Segments, "remote"), hostNamed(top.Segments, "server")
}

// TestShardedTopologyCrossSegmentEcho drives a closed-loop UDP echo between
// hosts in different shards: every packet crosses two boundaries and the
// gateway's forwarding path.
func TestShardedTopologyCrossSegmentEcho(t *testing.T) {
	top, client, server := shardedPair(t, 1)
	var echo *UDPApp
	echo, err := server.OpenUDP(UDPAppOptions{Port: 7}, func(tk *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		_ = echo.Send(tk, src, srcPort, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 32)
	ops := 0
	var capp *UDPApp
	capp, err = client.OpenUDP(UDPAppOptions{}, func(tk *sim.Task, data []byte, src view.IP4, srcPort uint16) {
		ops++
		_ = capp.Send(tk, server.Addr(), 7, msg)
	})
	if err != nil {
		t.Fatal(err)
	}
	client.Spawn("kick", func(tk *sim.Task) { _ = capp.Send(tk, server.Addr(), 7, msg) })

	top.Run(50*sim.Millisecond, 3)
	if ops < 10 {
		t.Fatalf("completed %d cross-shard echo rounds, want >= 10", ops)
	}
	if fwd := top.Gateway.Stats().Forwarded; fwd < uint64(2*ops) {
		t.Fatalf("gateway forwarded %d datagrams for %d round trips", fwd, ops)
	}
	for _, b := range top.Boundaries {
		ab, ba := b.Transferred()
		if ab == 0 || ba == 0 {
			t.Fatalf("boundary carried no traffic in one direction (ab=%d ba=%d)", ab, ba)
		}
	}
}

// TestShardedTopologyDeterministicAcrossWorkers is the cross-shard
// determinism property at the full-stack level: RTT schedules, per-shard
// event counts, and flight-recorder hop counts are all byte-identical at
// any worker count and GOMAXPROCS (exercised further by the bench property
// test over -exp scale rows).
func TestShardedTopologyDeterministicAcrossWorkers(t *testing.T) {
	type outcome struct {
		rtts  []sim.Time
		execs []uint64
		hops  uint64
		fwd   uint64
	}
	run := func(workers int) outcome {
		top, client, server := shardedPair(t, 1)
		var recs []*stats.Recorder
		for _, s := range top.Sims {
			rec := stats.NewRecorder(stats.Config{HopCap: 1 << 10, SampleCap: 1 << 10})
			s.SetMetrics(rec)
			recs = append(recs, rec)
		}
		var echo *UDPApp
		echo, err := server.OpenUDP(UDPAppOptions{Port: 7}, func(tk *sim.Task, data []byte, src view.IP4, srcPort uint16) {
			_ = echo.Send(tk, src, srcPort, data)
		})
		if err != nil {
			t.Fatal(err)
		}
		msg := make([]byte, 32)
		var o outcome
		var sent sim.Time
		var capp *UDPApp
		capp, err = client.OpenUDP(UDPAppOptions{}, func(tk *sim.Task, data []byte, src view.IP4, srcPort uint16) {
			o.rtts = append(o.rtts, tk.Now()-sent)
			sent = tk.Now()
			_ = capp.Send(tk, server.Addr(), 7, msg)
		})
		if err != nil {
			t.Fatal(err)
		}
		client.Spawn("kick", func(tk *sim.Task) {
			sent = tk.Now()
			_ = capp.Send(tk, server.Addr(), 7, msg)
		})
		top.Run(40*sim.Millisecond, workers)
		for _, s := range top.Sims {
			o.execs = append(o.execs, s.Executed())
		}
		for _, rec := range recs {
			o.hops += rec.HopsRecorded()
		}
		o.fwd = top.Gateway.Stats().Forwarded
		return o
	}
	base := run(1)
	if len(base.rtts) == 0 || base.hops == 0 {
		t.Fatalf("degenerate baseline: %d rtts, %d hops", len(base.rtts), base.hops)
	}
	for _, workers := range []int{2, 3, 8} {
		if got := run(workers); !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d diverged:\ngot  %+v\nwant %+v", workers, got, base)
		}
	}
}

// TestShardedTopologyRejectsUnshardable: shared-bus segments and single
// segments have no boundary to shard at.
func TestShardedTopologyRejectsUnshardable(t *testing.T) {
	gw := HostSpec{Name: "gw", Personality: osmodel.SPIN}
	if _, err := NewShardedTopology(1, &gw, []SegmentSpec{
		{Name: "lan0", Model: netdev.EthernetModel(), Switched: true, Subnet: view.IP4{10, 0, 1, 0}},
	}); err == nil {
		t.Fatal("single-segment sharded topology did not error")
	}
	if _, err := NewShardedTopology(1, &gw, []SegmentSpec{
		{Name: "lan0", Model: netdev.EthernetModel(), Switched: true, Subnet: view.IP4{10, 0, 1, 0}},
		{Name: "lan1", Model: netdev.EthernetModel(), Subnet: view.IP4{10, 0, 2, 0}},
	}); err == nil {
		t.Fatal("shared-bus segment in sharded topology did not error")
	}
}

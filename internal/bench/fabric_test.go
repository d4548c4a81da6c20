package bench

import (
	"testing"

	"plexus/internal/sim"
)

// One small fabric cell completes round trips through the full service chain
// and reports sane service metrics.
func TestFabricCellSmoke(t *testing.T) {
	rows, err := Fabric([]int{200}, []int{2}, 50*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	t.Logf("row: ops=%d p50=%v p99=%v retries=%d skew=%.2f nat=%d links=%v drops=%d",
		r.Ops, r.P50, r.P99, r.Retries, r.Skew, r.NATOccupancy, r.LinkHits, r.PipeDrops)
	if r.Ops == 0 {
		t.Fatal("no ops")
	}
	if r.NATOccupancy != fabricClients {
		t.Errorf("NAT occupancy %d, want %d", r.NATOccupancy, fabricClients)
	}
	if len(r.LinkHits) != fabricGatewayLinks || r.LinkHits[0] == 0 || r.LinkHits[1] == 0 {
		t.Errorf("ECMP split %v, want traffic on both links", r.LinkHits)
	}
	if r.PipeDrops != 0 {
		t.Errorf("pipe drops %d on clean traffic", r.PipeDrops)
	}
	if r.Skew < 1.0 {
		t.Errorf("skew %.2f < 1", r.Skew)
	}
}

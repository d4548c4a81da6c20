package bench

import (
	"testing"

	"plexus/internal/sim"
)

func TestFig5FastDriver(t *testing.T) {
	rows, err := Fig5(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%-18s %-22s %v", r.Device, r.System, r.RTT)
		if r.Device == "dec-t3-fastdrv" {
			t.Error("fast-driver T3 should be skipped (paper had none)")
		}
	}
	slow, err := Fig5(false)
	if err != nil {
		t.Fatal(err)
	}
	find := func(rows []Fig5Row, dev string, sys System) sim.Time {
		for _, r := range rows {
			if r.Device == dev && r.System == sys {
				return r.RTT
			}
		}
		return 0
	}
	if fast := find(rows, "ethernet-fastdrv", SysPlexusInterrupt); fast >= find(slow, "ethernet", SysPlexusInterrupt) {
		t.Errorf("fast driver not faster: %v", fast)
	}
}

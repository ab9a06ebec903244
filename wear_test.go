package horus

import (
	"testing"
)

// CHV rotation: with N regions, successive episodes write different CHV
// cells, so the hottest CHV block wears N times slower.
func TestCHVRotationLevelsWear(t *testing.T) {
	const episodes = 4
	maxWear := func(regions int) int64 {
		cfg := TestConfig()
		cfg.CHVRegions = regions
		sys := NewSystem(cfg, HorusSLM)
		for e := 0; e < episodes; e++ {
			if e == 0 {
				sys.Fill()
			}
			res, err := sys.Drain()
			if err != nil {
				t.Fatal(err)
			}
			sys.Crash()
			if _, err := sys.Recover(res.Persist); err != nil {
				t.Fatal(err)
			}
		}
		lay := sys.Core.Layout
		max, _ := sys.Core.NVM.WearInRange(lay.CHVDataBase, lay.VaultBase)
		return max
	}
	single := maxWear(1)
	rotated := maxWear(episodes)
	if single != episodes {
		t.Errorf("single-region hottest CHV cell wear = %d, want %d", single, episodes)
	}
	if rotated != 1 {
		t.Errorf("rotated hottest CHV cell wear = %d, want 1", rotated)
	}
}

// Rotation must not break recovery: every episode recovers from its own
// region, including after wrap-around.
func TestCHVRotationRecoveryAcrossWrap(t *testing.T) {
	cfg := TestConfig()
	cfg.CHVRegions = 3
	sys := NewSystem(cfg, HorusDLM)
	for e := 0; e < 7; e++ { // wraps the 3 regions twice
		if e == 0 {
			sys.Fill()
		}
		golden := sys.Hierarchy.Golden()
		res, err := sys.Drain()
		if err != nil {
			t.Fatalf("episode %d drain: %v", e, err)
		}
		if want := uint64(e % 3); res.Persist.CHVRegion != want {
			t.Fatalf("episode %d used region %d, want %d", e, res.Persist.CHVRegion, want)
		}
		sys.Crash()
		if _, err := sys.Recover(res.Persist); err != nil {
			t.Fatalf("episode %d recover: %v", e, err)
		}
		if sys.Hierarchy.DirtyCount() != len(golden) {
			t.Fatalf("episode %d: hierarchy has %d blocks, want %d", e, sys.Hierarchy.DirtyCount(), len(golden))
		}
		for _, b := range sys.Hierarchy.DirtyBlocks() {
			if want, ok := golden[b.Addr]; !ok || b.Data != want {
				t.Fatalf("episode %d: block %#x wrong after recovery", e, b.Addr)
			}
		}
	}
}

// An attacker replaying a PREVIOUS REGION's content into the current region
// must still be caught (drain counters are global across regions).
func TestCHVRotationCrossRegionReplayDetected(t *testing.T) {
	cfg := TestConfig()
	cfg.CHVRegions = 2
	sys := NewSystem(cfg, HorusSLM)
	sys.Fill()
	res0, err := sys.Drain() // region 0
	if err != nil {
		t.Fatal(err)
	}
	sys.Crash()
	if _, err := sys.Recover(res0.Persist); err != nil {
		t.Fatal(err)
	}
	res1, err := sys.Drain() // region 1
	if err != nil {
		t.Fatal(err)
	}
	// Copy region 0's episode into region 1.
	lay := sys.Core.Layout
	st := sys.Core.NVM.Store()
	n := res1.Persist.EDC
	for i := uint64(0); i < n; i++ {
		st.WriteBlock(lay.CHVDataAddrR(1, i), st.ReadBlock(lay.CHVDataAddrR(0, i)))
	}
	for g := uint64(0); g*8 < n; g++ {
		a1, _ := lay.CHVAddrBlockAddrR(1, g*8)
		a0, _ := lay.CHVAddrBlockAddrR(0, g*8)
		st.WriteBlock(a1, st.ReadBlock(a0))
		m1, _ := lay.CHVMACBlockAddrR(1, g*8)
		m0, _ := lay.CHVMACBlockAddrR(0, g*8)
		st.WriteBlock(m1, st.ReadBlock(m0))
	}
	sys.Crash()
	if _, err := sys.Recover(res1.Persist); err == nil {
		t.Fatal("cross-region replay went undetected")
	}
}

// Wear accounting sanity through the facade: drains concentrate writes in
// the CHV, and WearStats reflects it.
func TestWearStatsReflectDrainTraffic(t *testing.T) {
	cfg := TestConfig()
	sys := NewSystem(cfg, HorusSLM)
	sys.Fill()
	res, err := sys.Drain()
	if err != nil {
		t.Fatal(err)
	}
	ws := sys.Core.NVM.WearStats()
	if ws.TotalWrites < res.MemWrites.Total() {
		t.Error("wear total below write count")
	}
	if ws.UniqueBlocks == 0 || ws.MaxWrites == 0 {
		t.Error("wear stats empty after a drain")
	}
	lay := sys.Core.Layout
	_, chvTotal := sys.Core.NVM.WearInRange(lay.CHVDataBase, lay.VaultBase)
	if chvTotal < int64(res.BlocksDrained) {
		t.Error("CHV wear below drained block count")
	}
}

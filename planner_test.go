package horus

import (
	"math"
	"testing"
)

// The planner must track the simulator within tolerance across schemes and
// LLC sizes at the paper's regime — that is what makes it usable for
// platform sizing without running the simulator.
func TestPlannerTracksSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale validation")
	}
	cfg := DefaultConfig()
	for _, llc := range []int{8 << 20, 16 << 20} {
		c := cfg
		c.LLCBytes = llc
		for _, scheme := range []Scheme{NonSecure, BaseLU, HorusSLM, HorusDLM} {
			plan := PlanBattery(c, scheme)
			res, err := RunDrain(c, scheme)
			if err != nil {
				t.Fatal(err)
			}
			checkWithin(t, scheme.String()+"/writes", float64(plan.Writes), float64(res.MemWrites.Total()), 0.25)
			if res.MemReads.Total() > 0 {
				checkWithin(t, scheme.String()+"/reads", float64(plan.Reads), float64(res.MemReads.Total()), 0.35)
			}
			checkWithin(t, scheme.String()+"/time", float64(plan.DrainTime), float64(res.DrainTime), 0.45)
			sim := c.EnergyOf(res).Total()
			checkWithin(t, scheme.String()+"/energy", plan.EnergyJ, sim, 0.5)
		}
	}
}

// TestHorusCountsMatchDrain checks horusCounts against simulated
// TestConfig drains: given the drained block count and the simulated
// meta-flush count as m, it must reproduce the drain's NVM writes and MAC
// calculations exactly (Horus-SLM writes 5152 chv-data + 644 chv-addr +
// 644 chv-mac + 495 meta-flush, MACs 5152 chv-data-mac + 566 meta-protect).
func TestHorusCountsMatchDrain(t *testing.T) {
	for _, scheme := range []Scheme{HorusSLM, HorusDLM} {
		res, err := RunDrain(TestConfig(), scheme)
		if err != nil {
			t.Fatal(err)
		}
		m := res.MemWrites.Get("meta-flush")
		writes, macs := horusCounts(int64(res.BlocksDrained), m, scheme == HorusDLM)
		if writes != res.MemWrites.Total() || macs != res.TotalMACs() {
			t.Errorf("%v: horusCounts(%d, %d) = %d writes, %d MACs; drain wrote [%v] and computed [%v]",
				scheme, res.BlocksDrained, m, writes, macs, res.MemWrites, res.MACCalcs)
		}
	}
}

func checkWithin(t *testing.T, what string, est, sim, tol float64) {
	t.Helper()
	if sim == 0 {
		return
	}
	if rel := math.Abs(est-sim) / sim; rel > tol {
		t.Errorf("%s: estimate %.3g vs simulated %.3g (%.0f%% off, tolerance %.0f%%)",
			what, est, sim, rel*100, tol*100)
	}
}

func TestPlannerOrderingAndScaling(t *testing.T) {
	cfg := DefaultConfig()
	lu := PlanBattery(cfg, BaseLU)
	eu := PlanBattery(cfg, BaseEU)
	slm := PlanBattery(cfg, HorusSLM)
	dlm := PlanBattery(cfg, HorusDLM)
	ns := PlanBattery(cfg, NonSecure)

	if !(ns.DrainTime < slm.DrainTime && slm.DrainTime < lu.DrainTime && lu.DrainTime < eu.DrainTime) {
		t.Errorf("planner ordering broken: ns=%v slm=%v lu=%v eu=%v",
			ns.DrainTime, slm.DrainTime, lu.DrainTime, eu.DrainTime)
	}
	if dlm.Writes >= slm.Writes {
		t.Error("DLM must plan fewer writes than SLM")
	}
	if dlm.MACs <= slm.MACs {
		t.Error("DLM must plan more MACs than SLM")
	}
	// Doubling the LLC roughly doubles the plan.
	cfg2 := cfg
	cfg2.LLCBytes = 32 << 20
	slm2 := PlanBattery(cfg2, HorusSLM)
	ratio := float64(slm2.Writes) / float64(slm.Writes)
	if ratio < 1.7 || ratio > 2.1 {
		t.Errorf("write scaling with LLC = %.2f, want ~1.9", ratio)
	}
	if slm.SuperCapCm3 <= slm.LiThinCm3 {
		t.Error("SuperCap must be bulkier than Li-thin")
	}
}

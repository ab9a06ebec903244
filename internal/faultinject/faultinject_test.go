package faultinject

import (
	"testing"

	"repro/internal/mem"
)

func TestCountingPassNeverFires(t *testing.T) {
	in := NewInjector(CrashPlan{Step: -1, Flavor: CleanCut})
	for i := 0; i < 10; i++ {
		if f := in.OnWrite(uint64(i*64), mem.CatData, mem.Block{}); f.Kind != mem.FaultNone {
			t.Fatalf("counting pass injected %v at write %d", f.Kind, i)
		}
	}
	if in.Steps() != 10 {
		t.Fatalf("Steps() = %d, want 10", in.Steps())
	}
	if _, fired := in.Fired(); fired {
		t.Fatal("counting pass reported fired")
	}
}

func TestCleanCutSuppressesTail(t *testing.T) {
	cutSeen := false
	in := NewInjector(CrashPlan{Step: 3, Flavor: CleanCut})
	in.OnCut = func() { cutSeen = true }
	kinds := make([]mem.FaultKind, 0, 6)
	for i := 0; i < 6; i++ {
		kinds = append(kinds, in.OnWrite(uint64(i*64), mem.CatCHVData, mem.Block{}).Kind)
	}
	want := []mem.FaultKind{mem.FaultNone, mem.FaultNone, mem.FaultNone, mem.FaultCut, mem.FaultCut, mem.FaultCut}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("write %d fault = %v, want %v (all: %v)", i, kinds[i], want[i], kinds)
		}
	}
	if !cutSeen {
		t.Fatal("OnCut was not invoked")
	}
	info, fired := in.Fired()
	if !fired || info.Step != 3 || info.Addr != 3*64 || info.Cat != string(mem.CatCHVData) {
		t.Fatalf("Fired() = %+v, %v", info, fired)
	}
}

func TestTornWriteInterruptsAndDerivesPrefix(t *testing.T) {
	in := NewInjector(CrashPlan{Step: 1, Flavor: TornWrite, Seed: 7})
	in.OnWrite(0, mem.CatData, mem.Block{})
	f := in.OnWrite(64, mem.CatData, mem.Block{})
	if f.Kind != mem.FaultTear {
		t.Fatalf("fault = %v, want tear", f.Kind)
	}
	if f.TornBytes < 1 || f.TornBytes >= mem.BlockSize {
		t.Fatalf("TornBytes = %d, want in [1,%d)", f.TornBytes, mem.BlockSize)
	}
	if tail := in.OnWrite(128, mem.CatData, mem.Block{}); tail.Kind != mem.FaultCut {
		t.Fatalf("post-tear write fault = %v, want cut", tail.Kind)
	}
}

func TestCompletingFlavorsFireOnce(t *testing.T) {
	for _, flavor := range []Flavor{BitFlip, DroppedWrite} {
		in := NewInjector(CrashPlan{Step: 2, Flavor: flavor, Seed: 42})
		var fired int
		for i := 0; i < 8; i++ {
			if f := in.OnWrite(uint64(i*64), mem.CatMAC, mem.Block{}); f.Kind != mem.FaultNone {
				fired++
				if i != 2 {
					t.Fatalf("%v fired at write %d, want 2", flavor, i)
				}
			}
		}
		if fired != 1 {
			t.Fatalf("%v fired %d times, want 1", flavor, fired)
		}
		if flavor.Interrupting() {
			t.Fatalf("%v claims to be interrupting", flavor)
		}
	}
}

func TestInjectorDeterministicParams(t *testing.T) {
	get := func() mem.Fault {
		in := NewInjector(CrashPlan{Step: 0, Flavor: BitFlip, Seed: 99})
		return in.OnWrite(0, mem.CatData, mem.Block{})
	}
	a, b := get(), get()
	if a != b {
		t.Fatalf("same plan produced different faults: %+v vs %+v", a, b)
	}
	in2 := NewInjector(CrashPlan{Step: 0, Flavor: BitFlip, Seed: 100})
	if c := in2.OnWrite(0, mem.CatData, mem.Block{}); c == a {
		t.Log("different seeds gave the same flip parameters (possible but unlikely)")
	}
}

func TestParseFlavors(t *testing.T) {
	all, err := ParseFlavors("all")
	if err != nil || len(all) != 4 {
		t.Fatalf("ParseFlavors(all) = %v, %v", all, err)
	}
	got, err := ParseFlavors("bit-flip, clean-cut")
	if err != nil || len(got) != 2 || got[0] != BitFlip || got[1] != CleanCut {
		t.Fatalf("ParseFlavors = %v, %v", got, err)
	}
	if _, err := ParseFlavors("nope"); err == nil {
		t.Fatal("unknown flavor did not error")
	}
}

// A flavor selection must survive the flag round-trip: rendering a Flavors
// list and re-parsing it yields the same list.
func TestParseFlavorsRoundTrip(t *testing.T) {
	all := AllFlavors()
	got, err := ParseFlavors(all.String())
	if err != nil {
		t.Fatalf("ParseFlavors(%q): %v", all.String(), err)
	}
	if len(got) != len(all) {
		t.Fatalf("round-trip = %v, want %v", got, all)
	}
	for i := range all {
		if got[i] != all[i] {
			t.Fatalf("round-trip[%d] = %v, want %v", i, got[i], all[i])
		}
	}
	sub := Flavors{BitFlip, CleanCut}
	got, err = ParseFlavors(sub.String())
	if err != nil || len(got) != 2 || got[0] != BitFlip || got[1] != CleanCut {
		t.Fatalf("subset round-trip = %v, %v", got, err)
	}
}

// SampleSteps edge cases: a stride larger than the episode still yields the
// boundary steps, and degenerate totals yield nothing.
func TestSampleStepsEdges(t *testing.T) {
	got := SampleSteps(10, 100, 0)
	if len(got) != 2 || got[0] != 0 || got[1] != 9 {
		t.Fatalf("stride>total sample = %v, want [0 9]", got)
	}
	if got := SampleSteps(1, 100, 0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("single-step episode = %v, want [0]", got)
	}
	if got := SampleSteps(0, 3, 5); got != nil {
		t.Fatalf("zero-step episode = %v, want nil", got)
	}
	if got := SampleSteps(-4, 1, 0); got != nil {
		t.Fatalf("negative-step episode = %v, want nil", got)
	}
	// A non-positive stride behaves as stride 1.
	if got := SampleSteps(4, 0, 0); len(got) != 4 {
		t.Fatalf("stride 0 sample = %v, want all 4 steps", got)
	}
}

func TestSampleSteps(t *testing.T) {
	if got := SampleSteps(5, 1, 0); len(got) != 5 {
		t.Fatalf("full sample = %v", got)
	}
	got := SampleSteps(100, 7, 0)
	if got[0] != 0 || got[len(got)-1] != 99 {
		t.Fatalf("stride sample missing endpoints: %v", got)
	}
	capped := SampleSteps(100, 1, 10)
	if len(capped) > 10 || capped[0] != 0 || capped[len(capped)-1] != 99 {
		t.Fatalf("capped sample = %v", capped)
	}
	if got := SampleSteps(50, 1, 1); len(got) != 1 {
		t.Fatalf("max=1 sample = %v", got)
	}
	if got := SampleSteps(0, 1, 0); got != nil {
		t.Fatalf("empty episode sample = %v", got)
	}
}

func TestOutcomeContract(t *testing.T) {
	for _, o := range []Outcome{OutcomeRestored, OutcomePartial, OutcomeDetected} {
		if !o.OK() {
			t.Fatalf("%v should satisfy the contract", o)
		}
	}
	for _, o := range []Outcome{OutcomeSilentCorruption, OutcomeInternalError} {
		if o.OK() {
			t.Fatalf("%v should fail the contract", o)
		}
	}
}

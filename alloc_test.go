package horus

import (
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"unsafe"
)

// TestDrainAllocsIndependentOfGOMAXPROCS pins that a drain's allocation
// count is a property of the code, not of the host's core count: allocs/op
// of RunDrain at GOMAXPROCS 1 and 2 agree within 1%. Mallocs deltas are
// read from runtime.MemStats directly because testing.AllocsPerRun forces
// GOMAXPROCS to 1.
func TestDrainAllocsIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, scheme := range []Scheme{BaseLU, HorusSLM} {
		one := drainAllocs(t, scheme, 1)
		two := drainAllocs(t, scheme, 2)
		if diff := two - one; diff > one/100 || -diff > one/100 {
			t.Errorf("%v: %.1f allocs/op at GOMAXPROCS=1 but %.1f at GOMAXPROCS=2", scheme, one, two)
		}
	}
}

// drainAllocs returns the median heap allocations of one RunDrain at
// TestConfig under the given GOMAXPROCS, over five runs after a warm-up.
// The collector is off while measuring: a GC inside a run empties the
// sync.Pool caches and adds refill allocations that have nothing to do with
// the code under test. The median drops the odd run that migrates to a P
// with a cold pool.
func drainAllocs(t *testing.T, scheme Scheme, procs int) float64 {
	t.Helper()
	runtime.GOMAXPROCS(procs)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	drain := func() {
		if _, err := RunDrain(TestConfig(), scheme); err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
	}
	drain()
	counts := make([]float64, 5)
	for i := range counts {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		drain()
		runtime.ReadMemStats(&after)
		counts[i] = float64(after.Mallocs - before.Mallocs)
	}
	sort.Float64s(counts)
	return counts[len(counts)/2]
}

// TestDrainReadsImageInPlace pins that System.Drain hands the drainer the
// hierarchy's own dirty image rather than a copy. An in-order drain of the
// 5,152-line TestConfig hierarchy under Non-Secure or Horus-SLM allocates
// little else, so it must allocate less than the image itself (5,152 x 72
// B); a per-drain copy of the image exceeds that on its own.
func TestDrainReadsImageInPlace(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, scheme := range []Scheme{NonSecure, HorusSLM} {
		sys := NewSystem(TestConfig(), scheme)
		if err := sys.Warmup(); err != nil {
			t.Fatal(err)
		}
		sys.Fill()
		image := uint64(sys.Hierarchy.DirtyCount()) * uint64(unsafe.Sizeof(DirtyBlock{}))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := sys.Drain(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= image {
			t.Errorf("%v: Drain allocated %d bytes, want less than the %d-byte dirty image", scheme, got, image)
		}
	}
}

// TestWorkloadSystemBuildBytes pins that building a test-scale run-time
// machine costs what the machine uses, not a paper-sized NVM store: one
// NewWorkloadSystem at TestConfig allocates at most 256 KiB for every
// secure scheme. Crash-matrix cells each build one, so a store pre-sized
// for a full-hierarchy drain used to dominate the matrix's allocation.
func TestWorkloadSystemBuildBytes(t *testing.T) {
	const limit = 256 << 10
	for _, scheme := range AllSchemes() {
		if !scheme.Secure() {
			continue
		}
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				NewWorkloadSystem(TestConfig(), scheme, DomainEPD)
			}
		})
		got := res.AllocedBytesPerOp()
		t.Logf("%v: %d KiB per build", scheme, got>>10)
		if got > limit {
			t.Errorf("%v: NewWorkloadSystem allocates %d KiB per build, want at most %d KiB",
				scheme, got>>10, limit>>10)
		}
	}
}

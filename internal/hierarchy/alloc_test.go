package hierarchy

import (
	"testing"
	"unsafe"

	"repro/internal/mem"
)

// TestFillAllocatedBytes pins that a fill costs the image it builds. New +
// FillAllDirty at the TestConfig hierarchy (5,152 lines, stride pattern)
// may allocate one DirtyBlock per line plus one address word per line,
// which also covers the rng's source. A map-backed image pays that several
// times over in buckets, growth and a side order slice.
func TestFillAllocatedBytes(t *testing.T) {
	cfg := Config{Levels: []LevelConfig{
		{Name: "L1", SizeBytes: 2 << 10, Ways: 2},
		{Name: "L2", SizeBytes: 64 << 10, Ways: 8},
		{Name: "LLC", SizeBytes: 256 << 10, Ways: 16},
	}}
	lines := cfg.TotalLines()
	if lines != 5152 {
		t.Fatalf("TestConfig hierarchy has %d lines, want 5152", lines)
	}
	const dataSize = 1 << 30
	opt := FillOptions{Pattern: PatternStride, DataSize: dataSize, Stride: dataSize / 5152 / mem.BlockSize * mem.BlockSize, Seed: 1}
	limit := int64(lines) * int64(unsafe.Sizeof(DirtyBlock{})+unsafe.Sizeof(uint64(0)))
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			New(cfg).FillAllDirty(opt)
		}
	})
	got := res.AllocedBytesPerOp()
	t.Logf("New+FillAllDirty: %d bytes per fill (limit %d)", got, limit)
	if got > limit {
		t.Errorf("New+FillAllDirty allocates %d bytes per fill, want at most %d (%d lines)", got, limit, lines)
	}
}

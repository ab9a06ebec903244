package hierarchy_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/mem"
	"repro/internal/recovery"
)

// refHierarchy is the obvious model of the dirty image: a map from address
// to content plus the order in which addresses first became dirty. Writes
// update in place, new addresses append, and the line capacity bounds the
// number of distinct addresses.
type refHierarchy struct {
	lines int
	data  map[uint64]mem.Block
	order []uint64
}

func newRef(lines int) *refHierarchy {
	return &refHierarchy{lines: lines, data: make(map[uint64]mem.Block)}
}

// write reports whether the hierarchy must panic on this write; a refused
// write leaves the model unchanged.
func (r *refHierarchy) write(addr uint64, b mem.Block) (panics bool) {
	if addr%mem.BlockSize != 0 {
		return true
	}
	if _, ok := r.data[addr]; !ok {
		if len(r.data) >= r.lines {
			return true
		}
		r.order = append(r.order, addr)
	}
	r.data[addr] = b
	return false
}

func (r *refHierarchy) clear() {
	r.data = make(map[uint64]mem.Block)
	r.order = nil
}

func (r *refHierarchy) blocks() []hierarchy.DirtyBlock {
	out := make([]hierarchy.DirtyBlock, len(r.order))
	for i, a := range r.order {
		out[i] = hierarchy.DirtyBlock{Addr: a, Data: r.data[a]}
	}
	return out
}

func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

func randBlock(rng *rand.Rand) mem.Block {
	var b mem.Block
	rng.Read(b[:])
	return b
}

// TestHierarchyMatchesReference drives random writes (new addresses and
// updates), reads, recovery refills (with duplicated addresses, into empty
// and non-empty images), clears, fills and the capacity and alignment
// panics against refHierarchy, and checks every observable after each
// step: DirtyCount, DirtyBlocks order and content, Golden, and Read for
// every address in the pool.
func TestHierarchyMatchesReference(t *testing.T) {
	const lines = 48
	cfg := hierarchy.Config{Levels: []hierarchy.LevelConfig{
		{Name: "L1", SizeBytes: 16 * mem.BlockSize, Ways: 2},
		{Name: "L2", SizeBytes: 32 * mem.BlockSize, Ways: 4},
	}}
	if cfg.TotalLines() != lines {
		t.Fatalf("config has %d lines, want %d", cfg.TotalLines(), lines)
	}
	// Twice the capacity of addresses, so writes both update and hit the
	// capacity bound.
	const pool = 2 * lines
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := hierarchy.New(cfg)
		ref := newRef(lines)
		for step := 0; step < 600; step++ {
			var op string
			switch k := rng.Intn(100); {
			case k < 50:
				op = "write"
				addr := uint64(rng.Intn(pool)) * mem.BlockSize
				b := randBlock(rng)
				want := ref.write(addr, b)
				if got := panics(func() { h.Write(addr, b) }); got != want {
					t.Fatalf("seed %d step %d: Write(%#x) panicked=%v, want %v", seed, step, addr, got, want)
				}
			case k < 55:
				op = "unaligned write"
				addr := uint64(rng.Intn(pool))*mem.BlockSize + 1 + uint64(rng.Intn(mem.BlockSize-1))
				if !ref.write(addr, mem.Block{}) {
					t.Fatal("reference accepted an unaligned write")
				}
				if !panics(func() { h.Write(addr, mem.Block{}) }) {
					t.Fatalf("seed %d step %d: unaligned Write(%#x) did not panic", seed, step, addr)
				}
			case k < 70:
				op = "refill"
				if rng.Intn(2) == 0 {
					h.Clear()
					ref.clear()
				}
				// A refill stays within capacity. Some addresses repeat a
				// block already chosen; pool addresses often repeat the
				// current image.
				room := lines - len(ref.order)
				var blocks []hierarchy.DirtyBlock
				fresh := 0
				for n := rng.Intn(lines / 2); len(blocks) < n; {
					addr := uint64(rng.Intn(pool)) * mem.BlockSize
					if len(blocks) > 0 && rng.Intn(4) == 0 {
						addr = blocks[rng.Intn(len(blocks))].Addr
					}
					if _, ok := ref.data[addr]; !ok && !containsAddr(blocks, addr) {
						if fresh == room {
							break
						}
						fresh++
					}
					blocks = append(blocks, hierarchy.DirtyBlock{Addr: addr, Data: randBlock(rng)})
				}
				for _, b := range blocks {
					if ref.write(b.Addr, b.Data) {
						t.Fatal("reference refused a refill within capacity")
					}
				}
				recovery.RefillHierarchy(h, blocks)
				// The hierarchy owns its copy of what it was given.
				for i := range blocks {
					blocks[i].Data[0] ^= 0xff
				}
			case k < 75:
				op = "clear"
				h.Clear()
				ref.clear()
			case k < 78:
				op = "fill"
				h.Clear()
				ref.clear()
				pattern := hierarchy.PatternDense
				if rng.Intn(2) == 0 {
					pattern = hierarchy.PatternStride
				}
				n := h.FillAllDirty(hierarchy.FillOptions{
					Pattern: pattern, DataSize: 1 << 20, Stride: 2 * mem.BlockSize, Seed: rng.Int63(),
				})
				if n != lines {
					t.Fatalf("fill placed %d blocks, want %d", n, lines)
				}
				for _, b := range h.DirtyBlocks() {
					if ref.write(b.Addr, b.Data) {
						t.Fatalf("fill placed a duplicate or unaligned address %#x", b.Addr)
					}
				}
			default:
				op = "read"
			}
			checkAgainstRef(t, fmt.Sprintf("seed %d step %d (%s)", seed, step, op), h, ref, pool)
		}
	}
}

func containsAddr(blocks []hierarchy.DirtyBlock, addr uint64) bool {
	for _, b := range blocks {
		if b.Addr == addr {
			return true
		}
	}
	return false
}

func checkAgainstRef(t *testing.T, where string, h *hierarchy.Hierarchy, ref *refHierarchy, pool int) {
	t.Helper()
	if got, want := h.DirtyCount(), len(ref.order); got != want {
		t.Fatalf("%s: DirtyCount %d, want %d", where, got, want)
	}
	got, want := h.DirtyBlocks(), ref.blocks()
	if len(got) != len(want) {
		t.Fatalf("%s: DirtyBlocks has %d blocks, want %d", where, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: DirtyBlocks[%d] at %#x, want %#x (or content differs)", where, i, got[i].Addr, want[i].Addr)
		}
	}
	// The returned slice belongs to the caller.
	for i := range got {
		got[i].Data[0] ^= 0xff
		got[i].Addr += mem.BlockSize
	}
	golden := h.Golden()
	if len(golden) != len(ref.data) {
		t.Fatalf("%s: Golden has %d blocks, want %d", where, len(golden), len(ref.data))
	}
	for a, b := range ref.data {
		if golden[a] != b {
			t.Fatalf("%s: Golden[%#x] differs", where, a)
		}
	}
	for a := range golden {
		golden[a] = mem.Block{}
	}
	for i := 0; i < pool; i++ {
		addr := uint64(i) * mem.BlockSize
		b, ok := h.Read(addr)
		wb, wok := ref.data[addr]
		if ok != wok || b != wb {
			t.Fatalf("%s: Read(%#x) = (_, %v), want (_, %v) or content differs", where, addr, ok, wok)
		}
	}
}

// Package hierarchy models the contents of the processor cache hierarchy at
// the moment a crash is detected: the set of dirty cache blocks that the EPD
// (extended persistence domain) machinery must drain to the NVM.
//
// EPD platform requirements are defined by the worst case (§III), so the
// package provides the paper's worst-case fill — every line of every level
// dirty, with pairwise physical distance of at least 16 KB so that security-
// metadata locality is minimal (§V-A) — along with denser patterns used by
// the sensitivity ablations.
//
// The hierarchy is modelled as its *contents* (an ordered set of dirty
// blocks with data), not as an insertion-time simulator: the paper's
// draining study depends only on which blocks are dirty when the crash
// hits, and platform sizing assumes all of them are. The contents are one
// dense slice in insertion order, written once by a fill or a recovery
// refill and read in place by each drain (DirtyView).
package hierarchy

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/mem"
)

// LevelConfig describes one cache level.
type LevelConfig struct {
	Name         string
	SizeBytes    int
	Ways         int
	LatencyCycle int // access latency in core cycles (Table I); informational
}

// Lines returns the level's line capacity.
func (lc LevelConfig) Lines() int { return lc.SizeBytes / mem.BlockSize }

// Config describes the hierarchy.
type Config struct {
	Levels []LevelConfig
}

// TableI returns the paper's hierarchy: L1 64 KB 2-way (2 cycles),
// L2 2 MB 8-way (20 cycles), inclusive LLC 16 MB 16-way (32 cycles).
func TableI() Config { return TableIWithLLC(16 << 20) }

// TableIWithLLC returns the Table I hierarchy with a different LLC capacity,
// used by the paper's LLC-size sensitivity studies (Figs. 14-16).
func TableIWithLLC(llcBytes int) Config {
	return Config{Levels: []LevelConfig{
		{Name: "L1", SizeBytes: 64 << 10, Ways: 2, LatencyCycle: 2},
		{Name: "L2", SizeBytes: 2 << 20, Ways: 8, LatencyCycle: 20},
		{Name: "LLC", SizeBytes: llcBytes, Ways: 16, LatencyCycle: 32},
	}}
}

// TotalLines returns the total line capacity across all levels; the paper's
// worst case assumes all of them dirty with distinct addresses.
func (c Config) TotalLines() int {
	n := 0
	for _, l := range c.Levels {
		n += l.Lines()
	}
	return n
}

// DirtyBlock is one block awaiting drain: its original physical address and
// its plaintext content.
type DirtyBlock struct {
	Addr uint64
	Data mem.Block
}

// Hierarchy holds the dirty contents of the cache hierarchy as one
// insertion-ordered slice of dirty blocks, each address at most once. Fill
// and refill write the slice directly; only Write and Read, which look a
// block up by address, build an address index, on first use.
type Hierarchy struct {
	cfg    Config
	blocks []DirtyBlock
	index  map[uint64]int // address -> position in blocks; nil until needed
}

// New returns an empty hierarchy.
func New(cfg Config) *Hierarchy {
	if len(cfg.Levels) == 0 {
		panic("hierarchy: config needs at least one level")
	}
	return &Hierarchy{cfg: cfg}
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Write inserts or updates a dirty block. Addresses must be 64-byte aligned.
func (h *Hierarchy) Write(addr uint64, data mem.Block) {
	if addr%mem.BlockSize != 0 {
		panic(fmt.Sprintf("hierarchy: unaligned address %#x", addr))
	}
	if i, ok := h.lookup(addr); ok {
		h.blocks[i].Data = data
		return
	}
	if len(h.blocks) >= h.cfg.TotalLines() {
		panic("hierarchy: dirty blocks exceed total line capacity")
	}
	h.index[addr] = len(h.blocks)
	h.blocks = append(h.blocks, DirtyBlock{Addr: addr, Data: data})
}

// Read returns the content of a dirty block, if present.
func (h *Hierarchy) Read(addr uint64) (mem.Block, bool) {
	if i, ok := h.lookup(addr); ok {
		return h.blocks[i].Data, true
	}
	return mem.Block{}, false
}

// lookup returns addr's position in blocks, building the index on first use.
func (h *Hierarchy) lookup(addr uint64) (int, bool) {
	if h.index == nil {
		h.index = make(map[uint64]int, len(h.blocks))
		for i, b := range h.blocks {
			h.index[b.Addr] = i
		}
	}
	i, ok := h.index[addr]
	return i, ok
}

// DirtyCount returns the number of dirty blocks.
func (h *Hierarchy) DirtyCount() int { return len(h.blocks) }

// Clear models the loss of the (volatile) cache arrays, e.g. after draining
// completes and power is lost. The image's storage is kept for a refill.
func (h *Hierarchy) Clear() {
	h.blocks = h.blocks[:0]
	h.index = nil
}

// Refill installs blocks as dirty lines with the result of writing them in
// order: an address named twice keeps its first position and its last
// content. Into an empty hierarchy, the blocks are copied in one pass;
// only a list that repeats an address goes through Write.
func (h *Hierarchy) Refill(blocks []DirtyBlock) {
	if len(h.blocks) == 0 && len(blocks) <= h.cfg.TotalLines() && distinctAligned(blocks) {
		h.blocks = append(h.blocks, blocks...)
		h.index = nil
		return
	}
	for _, b := range blocks {
		h.Write(b.Addr, b.Data)
	}
}

// distinctAligned reports whether the blocks' addresses are 64-byte aligned
// and pairwise distinct, by sorting a copy of them.
func distinctAligned(blocks []DirtyBlock) bool {
	addrs := make([]uint64, len(blocks))
	for i, b := range blocks {
		addrs[i] = b.Addr
	}
	slices.Sort(addrs)
	for i, a := range addrs {
		if a%mem.BlockSize != 0 || i > 0 && a == addrs[i-1] {
			return false
		}
	}
	return true
}

// DirtyView returns the dirty blocks in insertion order without copying
// them: the slice is the hierarchy's own storage, so the caller must not
// write into it, and it is valid until the next Write, Refill, Clear or
// fill. The capacity is clipped, so an append copies instead of clobbering.
func (h *Hierarchy) DirtyView() []DirtyBlock { return h.blocks[:len(h.blocks):len(h.blocks)] }

// DirtyBlocks returns a copy of the dirty blocks in insertion order; the
// caller owns it.
func (h *Hierarchy) DirtyBlocks() []DirtyBlock {
	out := make([]DirtyBlock, len(h.blocks))
	copy(out, h.blocks)
	return out
}

// DirtyBlocksShuffled returns the dirty blocks in a pseudo-random flush
// order. The worst-case drain flushes lines with no useful ordering
// (§V-A: "randomly filled with sparse contents").
func (h *Hierarchy) DirtyBlocksShuffled(rng *rand.Rand) []DirtyBlock {
	out := h.DirtyBlocks()
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Golden returns a copy of the dirty contents keyed by address, used by
// end-to-end tests to check recovery.
func (h *Hierarchy) Golden() map[uint64]mem.Block {
	out := make(map[uint64]mem.Block, len(h.blocks))
	for _, b := range h.blocks {
		out[b.Addr] = b.Data
	}
	return out
}

// FillPattern selects how FillAllDirty chooses addresses.
type FillPattern int

// Fill patterns.
const (
	// PatternWorstCaseSparse places blocks on distinct pseudo-random 16 KB
	// slots, the paper's worst case: every block in its own counter region
	// and MAC region, minimal metadata-cache locality.
	PatternWorstCaseSparse FillPattern = iota
	// PatternDense places blocks contiguously from address 0 (best case for
	// the baselines' metadata locality).
	PatternDense
	// PatternStride places block i at i*Stride (Stride from FillOptions).
	PatternStride
)

// FillOptions parameterises FillAllDirty.
type FillOptions struct {
	Pattern  FillPattern
	DataSize uint64 // size of the protected data region
	Stride   uint64 // used by PatternStride; bytes, 64B multiple
	Seed     int64  // rng seed for slot selection and data generation
}

// SparseSlotBytes is the minimum physical distance of the paper's
// worst-case fill.
const SparseSlotBytes = 16 << 10

// FillAllDirty fills every line of every level with a dirty block of
// pseudo-random data and returns the number of blocks placed. The total
// equals Config.TotalLines (295 936 for the Table I hierarchy, the count in
// the paper's Fig. 6).
func (h *Hierarchy) FillAllDirty(opt FillOptions) int {
	n := h.cfg.TotalLines()
	if len(h.blocks) != 0 {
		panic("hierarchy: FillAllDirty on a non-empty hierarchy")
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	// Every pattern yields distinct addresses, so the blocks go straight
	// into the image. Addresses are drawn before data: the rng stream is
	// all slot choices, then all block contents.
	blocks := make([]DirtyBlock, n)
	switch opt.Pattern {
	case PatternWorstCaseSparse:
		slots := opt.DataSize / SparseSlotBytes
		if uint64(n) > slots {
			panic(fmt.Sprintf("hierarchy: %d blocks need %d 16KB slots but data region has %d", n, n, slots))
		}
		// Choose n distinct slots via a partial Fisher-Yates over the slot
		// index space, sparse-map based so 32 GB regions stay cheap.
		swap := make(map[uint64]uint64)
		for i := 0; i < n; i++ {
			j := uint64(i) + uint64(rng.Int63n(int64(slots-uint64(i))))
			vi, vj := valueAt(swap, uint64(i)), valueAt(swap, j)
			swap[uint64(i)], swap[j] = vj, vi
			blocks[i].Addr = vj * SparseSlotBytes
		}
	case PatternDense:
		if uint64(n)*mem.BlockSize > opt.DataSize {
			panic("hierarchy: dense fill exceeds data region")
		}
		for i := 0; i < n; i++ {
			blocks[i].Addr = uint64(i) * mem.BlockSize
		}
	case PatternStride:
		if opt.Stride == 0 || opt.Stride%mem.BlockSize != 0 {
			panic("hierarchy: stride must be a positive 64B multiple")
		}
		if uint64(n)*opt.Stride > opt.DataSize {
			panic("hierarchy: strided fill exceeds data region")
		}
		for i := 0; i < n; i++ {
			blocks[i].Addr = uint64(i) * opt.Stride
		}
	default:
		panic("hierarchy: unknown fill pattern")
	}
	for i := range blocks {
		randomBlock(rng, &blocks[i].Data)
	}
	h.blocks, h.index = blocks, nil
	return n
}

func valueAt(swap map[uint64]uint64, i uint64) uint64 {
	if v, ok := swap[i]; ok {
		return v
	}
	return i
}

// randomBlock fills b with eight little-endian rng.Uint64 words.
func randomBlock(rng *rand.Rand, b *mem.Block) {
	for i := 0; i < mem.BlockSize; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], rng.Uint64())
	}
}

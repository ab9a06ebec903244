// Package mem models the non-volatile main memory of the simulated system:
// a functional, sparse, 64-byte-block store plus a banked timing and energy
// model matching the paper's DDR-based PCM parameters (Table I: 150 ns read,
// 500 ns write; §V-G: 5.5 nJ per read, 531.8 nJ per write).
package mem

import (
	"fmt"
	"sort"
)

// BlockSize is the memory access granularity in bytes (one cache line).
const BlockSize = 64

// Block is a 64-byte memory block.
type Block [BlockSize]byte

// IsZero reports whether every byte of the block is zero.
func (b *Block) IsZero() bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// storeEntry is one populated block's state: its content plus its lifetime
// write (wear) count. Fusing the two means the controller's per-write hot
// path probes one table once instead of a block table and a wear table.
type storeEntry struct {
	b    Block
	wear int64
}

// Store is a sparse functional memory: unwritten blocks read as zero.
// Addresses are byte addresses and must be 64-byte aligned.
//
// Blocks live in open-addressed tables (addrmap.go) rather than Go maps:
// every timed access funnels through ReadBlock/WriteBlock, so the probe cost
// and the map's per-bucket overhead are on the simulator's hottest path.
// The controller's table is partitioned into per-bank shards using its bank
// interleaving (bankOf); a single-shard store (NewStore) behaves
// identically. Every writer is serial, so the partition is purely a memory
// layout, kept on measurement (DESIGN.md §13).
//
// A store costs what it holds: each shard's table starts small on first
// touch and doubles as it fills. Only a machine that knows its footprint up
// front — horus.NewSystem, whose Fill dirties the whole hierarchy — calls
// Reserve.
type Store struct {
	shards []addrMap[storeEntry]
}

// NewStore returns an empty single-shard store.
func NewStore() *Store { return NewShardedStore(1) }

// NewShardedStore returns an empty store partitioned into the given number
// of per-bank shards. Shard assignment follows bankOf with the same count,
// so a controller with n banks over an n-shard store keeps each bank's
// blocks in exactly one shard.
func NewShardedStore(shards int) *Store {
	if shards <= 0 {
		shards = 1
	}
	return &Store{shards: make([]addrMap[storeEntry], shards)}
}

// Shards returns the number of per-bank shards.
func (s *Store) Shards() int { return len(s.shards) }

func checkAligned(addr uint64) {
	if addr%BlockSize != 0 {
		panic(fmt.Sprintf("mem: unaligned block address %#x", addr))
	}
}

// shard returns the shard owning addr.
func (s *Store) shard(addr uint64) *addrMap[storeEntry] {
	if len(s.shards) == 1 {
		return &s.shards[0]
	}
	return &s.shards[bankOf(addr, len(s.shards))]
}

// ReadBlock returns the content of the block at addr (zero if never written).
func (s *Store) ReadBlock(addr uint64) Block {
	checkAligned(addr)
	e, _ := s.shard(addr).get(addr)
	return e.b
}

// WriteBlock stores b at addr without touching the wear count (functional
// writes from tests and recovery are not medium writes).
func (s *Store) WriteBlock(addr uint64, b Block) {
	checkAligned(addr)
	s.shard(addr).ref(addr).b = b
}

// entry returns a pointer to the block's fused content+wear entry, inserting
// a zero entry if absent. The pointer is invalidated by the next insertion
// into the same shard (table growth); the controller uses it strictly within
// one access.
func (s *Store) entry(addr uint64) *storeEntry {
	checkAligned(addr)
	return s.shard(addr).ref(addr)
}

// wearOf returns the lifetime write count of one block.
func (s *Store) wearOf(addr uint64) int64 {
	e, _ := s.shard(addr).get(addr)
	return e.wear
}

// eachWear calls fn for every block with a non-zero wear count, in
// unspecified order. Blocks only ever written functionally (wear zero) are
// skipped, preserving the semantics of the former separate wear table.
func (s *Store) eachWear(fn func(addr uint64, wear int64)) {
	for i := range s.shards {
		s.shards[i].each(func(a uint64, e storeEntry) {
			if e.wear != 0 {
				fn(a, e.wear)
			}
		})
	}
}

// Populated returns the number of blocks that have been written.
func (s *Store) Populated() int {
	n := 0
	for i := range s.shards {
		n += s.shards[i].len()
	}
	return n
}

// Reserve pre-sizes the store for at least n populated blocks, so a known
// write burst (a full-hierarchy drain) doesn't pay repeated table-growth
// rehashes. It allocates and zeroes the whole reservation at once, so it is
// for footprints known to be large; a store left unreserved grows on
// demand. It never shrinks and is safe at any time. The reservation assumes
// blocks spread roughly evenly across shards (they do: bankOf interleaves),
// with slack so moderate imbalance still avoids rehashing.
func (s *Store) Reserve(n int) {
	per := n
	if len(s.shards) > 1 {
		per = n/len(s.shards) + n/(4*len(s.shards)) + 16
	}
	for i := range s.shards {
		s.shards[i].reserve(per)
	}
}

// Snapshot returns a deep copy of the store, used by tests to compare
// pre-crash and post-recovery memory images.
func (s *Store) Snapshot() *Store {
	out := &Store{shards: make([]addrMap[storeEntry], len(s.shards))}
	for i := range s.shards {
		out.shards[i] = s.shards[i].clone()
	}
	return out
}

// Each calls fn for every populated block, in unspecified order. The litmus
// harness uses it to copy a snapshotted image into a fresh system's store;
// callers needing a deterministic order should collect and sort.
func (s *Store) Each(fn func(addr uint64, b Block)) {
	for i := range s.shards {
		s.shards[i].each(func(a uint64, e storeEntry) { fn(a, e.b) })
	}
}

// AddressesInRange returns the sorted addresses of populated blocks within
// [lo, hi). Recovery scans use it to enumerate memory without materialising
// the full (sparse) address space.
func (s *Store) AddressesInRange(lo, hi uint64) []uint64 {
	var out []uint64
	for i := range s.shards {
		s.shards[i].each(func(a uint64, _ storeEntry) {
			if a >= lo && a < hi {
				out = append(out, a)
			}
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CorruptByte flips the bit at bitIndex of the byte at byteOffset within the
// block at addr. It is used by attack-injection tests and returns the
// previous block content.
func (s *Store) CorruptByte(addr uint64, byteOffset int, bitMask byte) Block {
	checkAligned(addr)
	p := s.shard(addr).ref(addr)
	old := p.b
	p.b[byteOffset] ^= bitMask
	return old
}

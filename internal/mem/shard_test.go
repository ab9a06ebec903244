package mem

import (
	"math/rand"
	"testing"
)

// TestShardedStoreMatchesSingleShard drives identical random traffic into a
// single-shard store and stores with several shard counts and asserts every
// observable (content, population, ranges, wear bookkeeping via entry) is
// identical — sharding is a layout choice, never a semantics choice.
func TestShardedStoreMatchesSingleShard(t *testing.T) {
	for _, shards := range []int{2, 3, 8, 16} {
		rng := rand.New(rand.NewSource(int64(shards)))
		ref := NewStore()
		s := NewShardedStore(shards)
		if s.Shards() != shards {
			t.Fatalf("Shards() = %d, want %d", s.Shards(), shards)
		}
		addrs := make([]uint64, 0, 512)
		for i := 0; i < 512; i++ {
			addr := uint64(rng.Intn(1<<14)) * BlockSize
			var b Block
			rng.Read(b[:])
			ref.WriteBlock(addr, b)
			s.WriteBlock(addr, b)
			addrs = append(addrs, addr)
			if i%7 == 0 {
				e := s.entry(addr)
				e.wear++
				ref.entry(addr).wear++
			}
		}
		if s.Populated() != ref.Populated() {
			t.Fatalf("shards=%d: Populated %d != %d", shards, s.Populated(), ref.Populated())
		}
		for _, a := range addrs {
			if s.ReadBlock(a) != ref.ReadBlock(a) {
				t.Fatalf("shards=%d: content mismatch at %#x", shards, a)
			}
			if s.wearOf(a) != ref.wearOf(a) {
				t.Fatalf("shards=%d: wear mismatch at %#x", shards, a)
			}
		}
		got := s.AddressesInRange(0, 1<<21)
		want := ref.AddressesInRange(0, 1<<21)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: AddressesInRange count %d != %d", shards, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: AddressesInRange[%d] = %#x, want %#x", shards, i, got[i], want[i])
			}
		}
	}
}

// TestShardPartitionFollowsBankOf pins the ownership rule of the sharded
// store: the shard holding an address is exactly bankOf(addr, shards).
func TestShardPartitionFollowsBankOf(t *testing.T) {
	const shards = 16
	s := NewShardedStore(shards)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2048; i++ {
		addr := uint64(rng.Intn(1<<16)) * BlockSize
		var b Block
		rng.Read(b[:])
		s.WriteBlock(addr, b)
	}
	for i := range s.shards {
		s.shards[i].each(func(a uint64, _ storeEntry) {
			if bankOf(a, shards) != i {
				t.Fatalf("address %#x stored in shard %d, owned by bank %d", a, i, bankOf(a, shards))
			}
		})
	}
}

// TestControllerWearThroughFusedEntries pins that the fused store entry
// reproduces the former separate wear table: timed writes wear, functional
// writes do not, resets preserve wear, and the stats filter zero-wear
// entries out of UniqueBlocks.
func TestControllerWearThroughFusedEntries(t *testing.T) {
	c := NewController(DefaultConfig())
	var b Block
	b[0] = 0xAB
	c.Write(0, 0, b, CatData)
	c.Write(0, 0, b, CatData)
	c.Write(0, 64, b, CatData)
	c.Store().WriteBlock(128, b) // functional write: populated but no wear

	if got := c.WearOf(0); got != 2 {
		t.Fatalf("WearOf(0) = %d, want 2", got)
	}
	ws := c.WearStats()
	if ws.UniqueBlocks != 2 {
		t.Fatalf("UniqueBlocks = %d, want 2 (functional writes must not count)", ws.UniqueBlocks)
	}
	if ws.TotalWrites != 3 || ws.MaxWrites != 2 || ws.HotAddr != 0 {
		t.Fatalf("WearStats = %+v, want total 3, max 2 at 0", ws)
	}
	c.ResetStats()
	if got := c.WearOf(0); got != 2 {
		t.Fatalf("wear reset by ResetStats: WearOf(0) = %d, want 2", got)
	}
	if c.Store().Populated() != 3 {
		t.Fatalf("Populated = %d, want 3", c.Store().Populated())
	}
}

// TestStoreShardFollowsControllerBank pins that a controller's store is
// partitioned by the same fold that routes its timed accesses to banks:
// every block the controller writes lands in the shard of its bank.
func TestStoreShardFollowsControllerBank(t *testing.T) {
	c := NewController(DefaultConfig())
	if c.store.Shards() != c.Banks() {
		t.Fatalf("store has %d shards for %d banks", c.store.Shards(), c.Banks())
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4096; i++ {
		c.Write(0, uint64(rng.Intn(1<<20))*BlockSize, Block{0: 1}, CatData)
	}
	for i := range c.store.shards {
		c.store.shards[i].each(func(a uint64, _ storeEntry) {
			if bankOf(a, c.Banks()) != i {
				t.Fatalf("address %#x stored in shard %d, routed to bank %d", a, i, bankOf(a, c.Banks()))
			}
		})
	}
}

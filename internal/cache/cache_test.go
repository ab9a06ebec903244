package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func contains(c *Cache, addr uint64) bool {
	_, ok := c.Contains(addr)
	return ok
}

func TestGeometry(t *testing.T) {
	// Table I LLC: 16MB, 16-way, 64B blocks.
	c := New("llc", 16<<20, 16, 64)
	if c.Lines() != 262144 {
		t.Errorf("16MB/64B lines = %d, want 262144", c.Lines())
	}
	if c.SizeBytes() != 16<<20 {
		t.Errorf("SizeBytes = %d", c.SizeBytes())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []struct{ size, ways, bs int }{
		{0, 1, 64}, {64, 0, 64}, {64, 1, 0}, {100, 1, 64},
	}
	for _, cse := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", cse)
				}
			}()
			New("bad", cse.size, cse.ways, cse.bs)
		}()
	}
}

func TestMissThenHit(t *testing.T) {
	c := New("t", 4*64, 2, 64)
	if _, hit := c.Lookup(0); hit {
		t.Fatal("empty cache hit")
	}
	c.Insert(0, false)
	if _, hit := c.Lookup(0); !hit {
		t.Fatal("inserted line missed")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	// 1 set, 2 ways, 64B blocks: addresses 0, 64, 128 map to the same set.
	c := New("t", 2*64, 2, 64)
	c.Insert(0, false)
	c.Insert(64, true)
	c.Lookup(0) // make 0 MRU; victim should be 64
	_, ev, evicted := c.Insert(128, false)
	if !evicted {
		t.Fatal("full set insert must evict")
	}
	if ev.Addr != 64 || !ev.Dirty {
		t.Errorf("evicted %+v, want addr=64 dirty=true", ev)
	}
	if !contains(c, 0) || !contains(c, 128) || contains(c, 64) {
		t.Error("post-eviction contents wrong")
	}
	if c.Stats().DirtyEvictions != 1 {
		t.Error("dirty eviction not counted")
	}
}

func TestPreferCleanVictims(t *testing.T) {
	// 1 set, 2 ways: one dirty (LRU) and one clean (MRU) line.
	c := New("t", 2*64, 2, 64)
	c.SetPreferCleanVictims(true)
	c.Insert(0, true)   // dirty, will become LRU
	c.Insert(64, false) // clean, MRU
	_, ev, evicted := c.Insert(128, false)
	if !evicted {
		t.Fatal("no eviction")
	}
	// Plain LRU would evict the dirty line at 0; clean preference must
	// pick the clean line at 64 even though it is more recently used.
	if ev.Addr != 64 || ev.Dirty {
		t.Errorf("evicted %+v, want clean line 64", ev)
	}
	// With only dirty lines, fall back to LRU.
	c2 := New("t2", 2*64, 2, 64)
	c2.SetPreferCleanVictims(true)
	c2.Insert(0, true)
	c2.Insert(64, true)
	_, ev, _ = c2.Insert(128, false)
	if ev.Addr != 0 || !ev.Dirty {
		t.Errorf("all-dirty fallback evicted %+v, want LRU dirty line 0", ev)
	}
	// Invalid ways are always preferred over any eviction.
	c3 := New("t3", 2*64, 2, 64)
	c3.SetPreferCleanVictims(true)
	c3.Insert(0, true)
	if _, _, evicted := c3.Insert(64, false); evicted {
		t.Error("evicted despite a free way")
	}
}

func TestInsertPresentPanics(t *testing.T) {
	c := New("t", 2*64, 2, 64)
	c.Insert(0, false)
	defer func() {
		if recover() == nil {
			t.Error("double insert did not panic")
		}
	}()
	c.Insert(0, false)
}

func TestTouchDirty(t *testing.T) {
	c := New("t", 2*64, 2, 64)
	c.Insert(0, false)
	if c.IsDirty(0) {
		t.Fatal("clean insert reported dirty")
	}
	c.Touch(0, true)
	if !c.IsDirty(0) {
		t.Fatal("Touch(dirty) did not set dirty bit")
	}
	c.Clean(0)
	if c.IsDirty(0) {
		t.Fatal("Clean did not clear dirty bit")
	}
}

func TestTouchAbsentPanics(t *testing.T) {
	c := New("t", 2*64, 2, 64)
	defer func() {
		if recover() == nil {
			t.Error("Touch of absent line did not panic")
		}
	}()
	c.Touch(0, true)
}

func TestInvalidate(t *testing.T) {
	c := New("t", 2*64, 2, 64)
	c.Insert(0, true)
	dirty, present := c.Invalidate(0)
	if !dirty || !present {
		t.Error("Invalidate of dirty line returned wrong flags")
	}
	if contains(c, 0) {
		t.Error("line still present after Invalidate")
	}
	if _, present := c.Invalidate(0); present {
		t.Error("second Invalidate reported present")
	}
}

func TestDirtyAndValidLines(t *testing.T) {
	c := New("t", 8*64, 2, 64)
	c.Insert(0, true)
	c.Insert(64, false)
	c.Insert(128, true)
	if got := len(c.ValidLines()); got != 3 {
		t.Errorf("ValidLines = %d, want 3", got)
	}
	dirty := c.DirtyLines()
	if len(dirty) != 2 {
		t.Fatalf("DirtyLines = %v, want 2 lines", dirty)
	}
	if c.CountValid() != 3 || c.CountDirty() != 2 {
		t.Error("counts wrong")
	}
	c.InvalidateAll()
	if c.CountValid() != 0 {
		t.Error("InvalidateAll left valid lines")
	}
}

func TestAddressReconstruction(t *testing.T) {
	// Lines reported by ValidLines must be the exact addresses inserted.
	c := New("t", 1<<12, 4, 64)
	addrs := []uint64{0, 64, 4096, 1 << 20, 3 << 21}
	for _, a := range addrs {
		c.Insert(a, false)
	}
	got := make(map[uint64]bool)
	for _, a := range c.ValidLines() {
		got[a] = true
	}
	for _, a := range addrs {
		if !got[a] {
			t.Errorf("address %#x lost in reconstruction", a)
		}
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	c := New("t", 16*64, 4, 64)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a := uint64(rng.Intn(256)) * 64
		if _, hit := c.Lookup(a); !hit {
			c.Insert(a, rng.Intn(2) == 0)
		}
		if c.CountValid() > c.Lines() {
			t.Fatal("valid lines exceed capacity")
		}
	}
}

// Property: after any insert/lookup sequence, every line address reported by
// ValidLines maps back to a set/tag that round-trips (self-consistency),
// dirty lines are a subset of valid lines, and every probe reports the slot
// the line was inserted into: set*ways+way, shared with no other line.
func TestConsistencyProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		const ways, numSets = 2, 4
		c := New("p", numSets*ways*64, ways, 64)
		present := make(map[uint64]int) // address -> slot
		for _, op := range ops {
			a := uint64(op%64) * 64
			if slot, ok := c.Contains(a); ok {
				if c.Touch(a, op&0x100 != 0) != slot || present[a] != slot {
					return false
				}
				if op&0x100 != 0 && !c.DirtyAt(slot) {
					return false
				}
			} else {
				slot, ev, evicted := c.Insert(a, op&0x100 != 0)
				if slot/ways != int(a/64)%numSets {
					return false
				}
				if evicted {
					if present[ev.Addr] != slot {
						return false // the victim's slot is the one reused
					}
					delete(present, ev.Addr)
				}
				present[a] = slot
			}
		}
		slots := make(map[int]bool)
		for a, slot := range present {
			if got, ok := c.Contains(a); !ok || got != slot || slots[slot] {
				return false
			}
			slots[slot] = true
		}
		valid := c.ValidLines()
		if len(valid) != len(present) {
			return false
		}
		for _, a := range valid {
			if _, ok := present[a]; !ok {
				return false
			}
		}
		validSet := make(map[uint64]bool)
		for _, a := range valid {
			validSet[a] = true
		}
		for _, a := range c.DirtyLines() {
			if !validSet[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: an eviction victim always comes from the same set as the
// inserted address.
func TestEvictionSameSetProperty(t *testing.T) {
	f := func(ops []uint32) bool {
		const numSets = 4
		c := New("p", numSets*2*64, 2, 64)
		for _, op := range ops {
			a := uint64(op%1024) * 64
			if contains(c, a) {
				continue
			}
			_, ev, evicted := c.Insert(a, false)
			if evicted && (ev.Addr/64)%numSets != (a/64)%numSets {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

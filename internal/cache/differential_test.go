package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refLine is the reference model's cache way: one field per piece of
// replacement state, with no packing.
type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

// refCache is a deliberately plain set-associative LRU cache: the
// behavioural specification the packed Cache is checked against.
type refCache struct {
	numSets, blockSize uint64
	ways               int
	sets               [][]refLine
	tick               uint64
	stats              Stats
	preferClean        bool
}

func newRefCache(sizeBytes, ways, blockSize int) *refCache {
	numSets := sizeBytes / (ways * blockSize)
	r := &refCache{numSets: uint64(numSets), blockSize: uint64(blockSize), ways: ways}
	r.sets = make([][]refLine, numSets)
	for i := range r.sets {
		r.sets[i] = make([]refLine, ways)
	}
	return r
}

func (r *refCache) index(addr uint64) (set, tag uint64) {
	bn := addr / r.blockSize
	return bn % r.numSets, bn / r.numSets
}

// find returns the (set, way) holding addr, with way -1 when absent.
func (r *refCache) find(addr uint64) (uint64, int) {
	set, tag := r.index(addr)
	for w, l := range r.sets[set] {
		if l.valid && l.tag == tag {
			return set, w
		}
	}
	return set, -1
}

func (r *refCache) slot(set uint64, way int) int { return int(set)*r.ways + way }

func (r *refCache) lookup(addr uint64) (int, bool) {
	set, w := r.find(addr)
	if w < 0 {
		r.stats.Misses++
		return -1, false
	}
	r.tick++
	r.sets[set][w].lru = r.tick
	r.stats.Hits++
	return r.slot(set, w), true
}

func (r *refCache) contains(addr uint64) (int, bool) {
	set, w := r.find(addr)
	if w < 0 {
		return -1, false
	}
	return r.slot(set, w), true
}

// insert fills the first invalid way; a full set evicts its least recently
// used line, or, when preferClean is set, its least recently used clean
// line if it has one.
func (r *refCache) insert(addr uint64, dirty bool) (int, Eviction, bool) {
	set, tag := r.index(addr)
	ways := r.sets[set]
	victim := -1
	for w, l := range ways {
		if !l.valid {
			victim = w
			break
		}
	}
	if victim < 0 {
		for w, l := range ways {
			if victim < 0 || l.lru < ways[victim].lru {
				victim = w
			}
		}
		if r.preferClean {
			clean := -1
			for w, l := range ways {
				if !l.dirty && (clean < 0 || l.lru < ways[clean].lru) {
					clean = w
				}
			}
			if clean >= 0 {
				victim = clean
			}
		}
	}
	v := &ways[victim]
	var ev Eviction
	evicted := v.valid
	if evicted {
		ev = Eviction{Addr: (v.tag*r.numSets + set) * r.blockSize, Dirty: v.dirty}
		r.stats.Evictions++
		if v.dirty {
			r.stats.DirtyEvictions++
		}
	}
	r.tick++
	*v = refLine{tag: tag, valid: true, dirty: dirty, lru: r.tick}
	return r.slot(set, victim), ev, evicted
}

func (r *refCache) touch(addr uint64, makeDirty bool) int {
	set, w := r.find(addr)
	r.tick++
	l := &r.sets[set][w]
	l.lru = r.tick
	l.dirty = l.dirty || makeDirty
	return r.slot(set, w)
}

func (r *refCache) clean(addr uint64) {
	if set, w := r.find(addr); w >= 0 {
		r.sets[set][w].dirty = false
	}
}

func (r *refCache) invalidate(addr uint64) (wasDirty, wasPresent bool) {
	set, w := r.find(addr)
	if w < 0 {
		return false, false
	}
	l := &r.sets[set][w]
	wasDirty = l.dirty
	*l = refLine{}
	return wasDirty, true
}

func (r *refCache) invalidateAll() {
	for _, ways := range r.sets {
		clear(ways)
	}
}

func (r *refCache) isDirty(addr uint64) bool {
	set, w := r.find(addr)
	return w >= 0 && r.sets[set][w].dirty
}

func (r *refCache) dirtyAt(slot int) bool {
	l := r.sets[slot/r.ways][slot%r.ways]
	return l.valid && l.dirty
}

// lines returns the valid (or valid dirty) addresses, sets then ways.
func (r *refCache) lines(dirtyOnly bool) []uint64 {
	var out []uint64
	for set, ways := range r.sets {
		for _, l := range ways {
			if l.valid && (l.dirty || !dirtyOnly) {
				out = append(out, (l.tag*r.numSets+uint64(set))*r.blockSize)
			}
		}
	}
	return out
}

// TestCacheMatchesReference drives Cache and the reference model with the
// same random operation streams and compares every observable after each
// operation: returned slots, evictions (address and dirtiness), statistics,
// per-address and per-slot dirtiness, and the scan order of the line lists.
// The streams mix Clean and Invalidate with inserts, so victim choice is
// pinned across holes in a set and clean/dirty interleavings, with the
// prefer-clean policy both off and on.
func TestCacheMatchesReference(t *testing.T) {
	geoms := []struct{ sets, ways int }{{1, 1}, {4, 1}, {1, 4}, {4, 2}, {2, 8}}
	for _, g := range geoms {
		for _, preferClean := range []bool{false, true} {
			for seed := int64(1); seed <= 4; seed++ {
				name := fmt.Sprintf("sets%d_ways%d_clean%v_seed%d", g.sets, g.ways, preferClean, seed)
				t.Run(name, func(t *testing.T) {
					runDifferential(t, g.sets, g.ways, preferClean, seed, 3000)
				})
			}
		}
	}
}

func runDifferential(t *testing.T, sets, ways int, preferClean bool, seed int64, ops int) {
	const bs = 64
	size := sets * ways * bs
	c := New("dut", size, ways, bs)
	r := newRefCache(size, ways, bs)
	c.SetPreferCleanVictims(preferClean)
	r.preferClean = preferClean
	rng := rand.New(rand.NewSource(seed))
	// Three blocks' worth of candidates per way keeps sets contended.
	universe := uint64(3 * sets * ways)
	for i := 0; i < ops; i++ {
		addr := uint64(rng.Int63n(int64(universe))) * bs
		var op string
		switch k := rng.Intn(20); {
		case k < 5:
			op = "lookup"
			s1, h1 := c.Lookup(addr)
			s2, h2 := r.lookup(addr)
			if h1 != h2 || (h1 && s1 != s2) {
				t.Fatalf("op %d Lookup(%#x) = (%d,%v), want (%d,%v)", i, addr, s1, h1, s2, h2)
			}
		case k < 7:
			op = "contains"
			s1, ok1 := c.Contains(addr)
			s2, ok2 := r.contains(addr)
			if ok1 != ok2 || (ok1 && s1 != s2) {
				t.Fatalf("op %d Contains(%#x) = (%d,%v), want (%d,%v)", i, addr, s1, ok1, s2, ok2)
			}
		case k < 12:
			dirty := rng.Intn(2) == 0
			if _, present := r.contains(addr); present {
				op = "touch"
				s1 := c.Touch(addr, dirty)
				s2 := r.touch(addr, dirty)
				if s1 != s2 {
					t.Fatalf("op %d Touch(%#x,%v) = %d, want %d", i, addr, dirty, s1, s2)
				}
				break
			}
			op = "insert"
			s1, ev1, e1 := c.Insert(addr, dirty)
			s2, ev2, e2 := r.insert(addr, dirty)
			if s1 != s2 || e1 != e2 || ev1 != ev2 {
				t.Fatalf("op %d Insert(%#x,%v) = (%d,%+v,%v), want (%d,%+v,%v)",
					i, addr, dirty, s1, ev1, e1, s2, ev2, e2)
			}
		case k < 15:
			op = "clean"
			c.Clean(addr)
			r.clean(addr)
		case k < 19:
			op = "invalidate"
			d1, p1 := c.Invalidate(addr)
			d2, p2 := r.invalidate(addr)
			if d1 != d2 || p1 != p2 {
				t.Fatalf("op %d Invalidate(%#x) = (%v,%v), want (%v,%v)", i, addr, d1, p1, d2, p2)
			}
		default:
			if rng.Intn(10) != 0 {
				continue // keep full flushes rare so sets stay populated
			}
			op = "invalidateAll"
			c.InvalidateAll()
			r.invalidateAll()
		}
		if c.Stats() != r.stats {
			t.Fatalf("op %d (%s %#x): Stats = %+v, want %+v", i, op, addr, c.Stats(), r.stats)
		}
		for a := uint64(0); a < universe; a++ {
			if got, want := c.IsDirty(a*bs), r.isDirty(a*bs); got != want {
				t.Fatalf("op %d (%s %#x): IsDirty(%#x) = %v, want %v", i, op, addr, a*bs, got, want)
			}
		}
		for s := 0; s < sets*ways; s++ {
			if got, want := c.DirtyAt(s), r.dirtyAt(s); got != want {
				t.Fatalf("op %d (%s %#x): DirtyAt(%d) = %v, want %v", i, op, addr, s, got, want)
			}
		}
		valid, dirty := r.lines(false), r.lines(true)
		if got := c.ValidLines(); !slices.Equal(got, valid) {
			t.Fatalf("op %d (%s %#x): ValidLines = %v, want %v", i, op, addr, got, valid)
		}
		if got := c.DirtyLines(); !slices.Equal(got, dirty) {
			t.Fatalf("op %d (%s %#x): DirtyLines = %v, want %v", i, op, addr, got, dirty)
		}
		if c.CountValid() != len(valid) || c.CountDirty() != len(dirty) {
			t.Fatalf("op %d (%s %#x): counts = (%d,%d), want (%d,%d)",
				i, op, addr, c.CountValid(), c.CountDirty(), len(valid), len(dirty))
		}
	}
}

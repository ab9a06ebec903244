// Package cache implements a generic set-associative, write-back cache with
// LRU replacement. It models both the cache hierarchy levels (L1/L2/LLC) and
// the three security-metadata caches of the paper (counter cache, MAC cache,
// Merkle-tree cache; Table I).
//
// The cache tracks presence and dirtiness only; functional content for dirty
// lines is held by the owning component (the secure memory controller keeps
// the logical values of dirty metadata lines). This split mirrors hardware:
// the array stores bits, the controller decides what they mean. The probes
// return the line's slot (set*ways+way) so the owner can keep that content
// in a slot-indexed array of its own.
package cache

import "fmt"

// line is one cache way, packed into 16 bytes: the tag, and one word that
// folds validity, dirtiness and recency together as tick<<1 | dirty. A zero
// word is an invalid line; every valid line carries a tick of at least 1.
// Ticks are unique, so comparing state words orders lines exactly as
// comparing their ticks would, and LRU victim choice needs no unpacking.
type line struct {
	tag   uint64
	state uint64
}

func (l line) valid() bool { return l.state != 0 }

func (l line) dirty() bool { return l.state&1 != 0 }

// use stamps the line with a fresh tick, keeping its dirty bit.
func (c *Cache) use(l *line) {
	c.tick++
	l.state = c.tick<<1 | l.state&1
}

// Stats counts cache events.
type Stats struct {
	Hits           int64
	Misses         int64
	Evictions      int64
	DirtyEvictions int64
}

// Cache is a set-associative write-back cache. Not safe for concurrent use;
// the simulator is single-threaded by design (deterministic schedules).
type Cache struct {
	name      string
	blockSize uint64
	numSets   uint64
	ways      int
	lines     []line // set*ways+way
	tick      uint64
	stats     Stats

	preferClean bool
}

// SetPreferCleanVictims switches the replacement policy to evict the LRU
// *clean* line when one exists, falling back to LRU overall. For the
// security-metadata caches this trades extra re-fetches of clean nodes for
// fewer dirty write-backs (each of which cascades into a tree-parent
// update under the lazy scheme).
func (c *Cache) SetPreferCleanVictims(on bool) { c.preferClean = on }

// New returns a cache of sizeBytes organised as ways-associative with the
// given block size. sizeBytes must be an exact multiple of ways*blockSize.
func New(name string, sizeBytes, ways, blockSize int) *Cache {
	if sizeBytes <= 0 || ways <= 0 || blockSize <= 0 {
		panic("cache: size, ways and block size must be positive")
	}
	if sizeBytes%(ways*blockSize) != 0 {
		panic(fmt.Sprintf("cache %s: size %d not divisible by ways*blockSize %d", name, sizeBytes, ways*blockSize))
	}
	numSets := sizeBytes / (ways * blockSize)
	c := &Cache{
		name:      name,
		blockSize: uint64(blockSize),
		numSets:   uint64(numSets),
		ways:      ways,
		lines:     make([]line, numSets*ways),
	}
	return c
}

// Name returns the diagnostic name.
func (c *Cache) Name() string { return c.name }

// Lines returns the total line capacity.
func (c *Cache) Lines() int { return int(c.numSets) * c.ways }

// SizeBytes returns the capacity in bytes.
func (c *Cache) SizeBytes() int { return c.Lines() * int(c.blockSize) }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	bn := addr / c.blockSize
	return bn % c.numSets, bn / c.numSets
}

func (c *Cache) addrOf(set, tag uint64) uint64 {
	return (tag*c.numSets + set) * c.blockSize
}

// find returns the slot holding addr, or -1.
func (c *Cache) find(addr uint64) int {
	set, tag := c.index(addr)
	base := int(set) * c.ways
	for i, l := range c.lines[base : base+c.ways] {
		if l.valid() && l.tag == tag {
			return base + i
		}
	}
	return -1
}

// Lookup probes for addr. On a hit it updates LRU state and returns the
// line's slot and true. On a miss it returns false and counts a miss; it
// does not allocate.
func (c *Cache) Lookup(addr uint64) (slot int, hit bool) {
	slot = c.find(addr)
	if slot < 0 {
		c.stats.Misses++
		return slot, false
	}
	c.use(&c.lines[slot])
	c.stats.Hits++
	return slot, true
}

// Contains probes for addr without touching LRU state or statistics,
// returning the line's slot when present.
func (c *Cache) Contains(addr uint64) (slot int, ok bool) {
	slot = c.find(addr)
	return slot, slot >= 0
}

// IsDirty reports whether addr is present and dirty (no LRU update).
func (c *Cache) IsDirty(addr uint64) bool {
	slot := c.find(addr)
	return slot >= 0 && c.lines[slot].dirty()
}

// DirtyAt reports whether the line in slot (as returned by a probe) is
// valid and dirty.
func (c *Cache) DirtyAt(slot int) bool {
	return c.lines[slot].dirty()
}

// Eviction describes a line displaced by Insert.
type Eviction struct {
	Addr  uint64
	Dirty bool
}

// Insert allocates addr (which must not be present), choosing the LRU victim
// if the set is full. It returns the slot the new line occupies — the
// victim's former slot — and the eviction, if any. The dirty flag sets the
// initial dirtiness of the new line.
func (c *Cache) Insert(addr uint64, dirty bool) (slot int, ev Eviction, evicted bool) {
	set, tag := c.index(addr)
	base := int(set) * c.ways
	victim := -1
	cleanVictim := -1
	var oldest uint64 = ^uint64(0)
	var oldestClean uint64 = ^uint64(0)
	for i := range c.lines[base : base+c.ways] {
		l := &c.lines[base+i]
		if !l.valid() {
			victim = i
			oldest = 0
			break
		}
		if l.tag == tag {
			panic(fmt.Sprintf("cache %s: Insert of already-present address %#x", c.name, addr))
		}
		if l.state < oldest {
			oldest = l.state
			victim = i
		}
		if !l.dirty() && l.state < oldestClean {
			oldestClean = l.state
			cleanVictim = i
		}
	}
	if c.preferClean && oldest != 0 && cleanVictim >= 0 {
		victim = cleanVictim
	}
	slot = base + victim
	v := &c.lines[slot]
	if v.valid() {
		ev = Eviction{Addr: c.addrOf(set, v.tag), Dirty: v.dirty()}
		evicted = true
		c.stats.Evictions++
		if ev.Dirty {
			c.stats.DirtyEvictions++
		}
	}
	*v = line{tag: tag}
	c.use(v)
	if dirty {
		v.state |= 1
	}
	return slot, ev, evicted
}

// Touch marks addr (which must be present) as most recently used and
// optionally dirty, returning its slot.
func (c *Cache) Touch(addr uint64, makeDirty bool) int {
	slot := c.find(addr)
	if slot < 0 {
		panic(fmt.Sprintf("cache %s: Touch of absent address %#x", c.name, addr))
	}
	l := &c.lines[slot]
	c.use(l)
	if makeDirty {
		l.state |= 1
	}
	return slot
}

// Clean clears the dirty bit of addr if present.
func (c *Cache) Clean(addr uint64) {
	if slot := c.find(addr); slot >= 0 {
		c.lines[slot].state &^= 1
	}
}

// Invalidate removes addr if present, returning whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (wasDirty, wasPresent bool) {
	slot := c.find(addr)
	if slot < 0 {
		return false, false
	}
	l := &c.lines[slot]
	wasDirty = l.dirty()
	l.state = 0
	return wasDirty, true
}

// scan returns the addresses of the valid lines (dirty ones only when
// dirtyOnly is set), sets in order and ways in physical order (a
// deterministic hardware-scan order).
func (c *Cache) scan(dirtyOnly bool) []uint64 {
	var out []uint64
	for slot, l := range c.lines {
		if l.valid() && (l.dirty() || !dirtyOnly) {
			out = append(out, c.addrOf(uint64(slot/c.ways), l.tag))
		}
	}
	return out
}

// ValidLines returns the addresses of all valid lines in scan order.
func (c *Cache) ValidLines() []uint64 { return c.scan(false) }

// DirtyLines returns the addresses of all valid dirty lines in scan order.
func (c *Cache) DirtyLines() []uint64 { return c.scan(true) }

// CountValid returns the number of valid lines.
func (c *Cache) CountValid() int {
	n := 0
	for _, l := range c.lines {
		if l.valid() {
			n++
		}
	}
	return n
}

// CountDirty returns the number of valid dirty lines.
func (c *Cache) CountDirty() int {
	n := 0
	for _, l := range c.lines {
		if l.dirty() {
			n++
		}
	}
	return n
}

// InvalidateAll clears the cache (models loss of volatile state at a crash).
func (c *Cache) InvalidateAll() { clear(c.lines) }

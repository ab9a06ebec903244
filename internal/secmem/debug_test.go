package secmem

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// checkInvariant verifies that every persisted (non-dirty-cached) tree and
// counter node matches its parent's logical entry. It walks all NVM blocks
// the test has touched via the golden address list.
func (c *Controller) checkInvariant(t *testing.T, step int) {
	t.Helper()
	lay := c.lay
	for level := 0; level < lay.RootLevel(); level++ {
		for index := uint64(0); index < lay.LevelCount[level]; index++ {
			addr := lay.NodeAddr(level, index)
			content, _ := c.currentContent(level, index)
			if content.IsZero() {
				continue
			}
			// Parent logical entry.
			pLevel, pIndex, slot := lay.Parent(level, index)
			parent, parentCached := c.root, false
			if pLevel != lay.RootLevel() {
				parent, parentCached = c.currentContent(pLevel, pIndex)
			}
			expected := entryOf(parent, slot)
			if c.cacheFor(level).IsDirty(addr) {
				continue // dirty lines may be newer than the parent entry
			}
			if expected == zeroMAC {
				t.Fatalf("step %d: node (%d,%d) nonzero but parent entry zero (node dirty=%v, parent cached=%v)",
					step, level, index,
					c.cacheFor(level).IsDirty(addr), parentCached)
			}
			if c.eng.NodeMAC(level, index, content) != expected {
				t.Fatalf("step %d: node (%d,%d) MAC mismatch vs parent entry", step, level, index)
			}
		}
	}
}

// currentContent returns the logical content of node (level, index) and
// whether it is cached: the cached content if so, otherwise the NVM copy.
func (c *Controller) currentContent(level int, index uint64) (mem.Block, bool) {
	addr := c.lay.NodeAddr(level, index)
	ca := c.cacheFor(level)
	if slot, ok := ca.Contains(addr); ok {
		return c.logicalRead(ca, slot, addr), true
	}
	return c.nvm.PeekRead(addr), false
}

func TestInvariantUnderChurn(t *testing.T) {
	c, _, _ := testSystem(t, LazyUpdate)
	rng := rand.New(rand.NewSource(5))
	var now sim.Time
	for i := 0; i < 600; i++ {
		addr := uint64(rng.Intn(1<<14)) * 4096
		done, err := c.WriteBlock(now, addr, block(byte(i)))
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		now = done
		if i%25 == 0 {
			c.checkInvariant(t, i)
		}
	}
	c.checkInvariant(t, 600)
}

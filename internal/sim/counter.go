package sim

import (
	"fmt"
	"sort"
	"strings"
)

// CounterSet is an ordered collection of labelled int64 counters. It is used
// for the per-category breakdowns in the paper's figures (memory writes by
// type, MAC calculations by purpose). Categories appear in the order they
// are first incremented, which keeps reports stable for a deterministic run.
//
// Add is on the simulator's per-memory-access hot path. Every set holds a
// handful of constant category names, so a linear search of that short list
// replaces a hash map, and the last-hit index is cached: runs of accesses in
// the same category (the common case in a drain loop, where the name is a
// constant string compared pointer-first) skip even the search.
type CounterSet struct {
	order []string
	vals  []int64
	last  int // index of the most recently added category
}

// NewCounterSet returns an empty counter set.
func NewCounterSet() *CounterSet { return &CounterSet{} }

func (cs *CounterSet) find(name string) int {
	for i, n := range cs.order {
		if n == name {
			return i
		}
	}
	return -1
}

// Add increments the named counter by n, creating it if needed.
func (cs *CounterSet) Add(name string, n int64) {
	i := cs.last
	if i >= len(cs.order) || cs.order[i] != name {
		if i = cs.find(name); i < 0 {
			i = len(cs.vals)
			cs.order = append(cs.order, name)
			cs.vals = append(cs.vals, 0)
		}
		cs.last = i
	}
	cs.vals[i] += n
}

// Get returns the value of the named counter (zero if absent).
func (cs *CounterSet) Get(name string) int64 {
	if i := cs.find(name); i >= 0 {
		return cs.vals[i]
	}
	return 0
}

// Total returns the sum of all counters.
func (cs *CounterSet) Total() int64 {
	var t int64
	for _, v := range cs.vals {
		t += v
	}
	return t
}

// Names returns the counter names in first-use order.
func (cs *CounterSet) Names() []string {
	out := make([]string, len(cs.order))
	copy(out, cs.order)
	return out
}

// SortedNames returns the counter names in lexical order.
func (cs *CounterSet) SortedNames() []string {
	out := cs.Names()
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the counter set.
func (cs *CounterSet) Clone() *CounterSet {
	out := NewCounterSet()
	for i, name := range cs.order {
		out.Add(name, cs.vals[i])
	}
	return out
}

// Merge adds every counter from other into cs.
func (cs *CounterSet) Merge(other *CounterSet) {
	for i, name := range other.order {
		cs.Add(name, other.vals[i])
	}
}

// String renders "name=value" pairs in first-use order.
func (cs *CounterSet) String() string {
	var b strings.Builder
	for i, name := range cs.order {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", name, cs.vals[i])
	}
	return b.String()
}

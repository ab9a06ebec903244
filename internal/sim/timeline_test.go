package sim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestTimelineBasicPacking(t *testing.T) {
	var tl timeline
	if s := tl.reserve(0, 10); s != 0 {
		t.Fatalf("first start = %v", s)
	}
	if s := tl.reserve(0, 10); s != 10 {
		t.Fatalf("second start = %v, want 10 (tail append)", s)
	}
}

func TestTimelineGapSplit(t *testing.T) {
	var tl timeline
	tl.reserve(100, 10) // creates gap [0,100)
	// Middle-of-gap placement splits into two gaps.
	if s := tl.reserve(40, 10); s != 40 {
		t.Fatalf("middle placement = %v, want 40", s)
	}
	if s := tl.reserve(0, 40); s != 0 {
		t.Fatalf("front slice = %v, want 0", s)
	}
	if s := tl.reserve(0, 50); s != 50 {
		t.Fatalf("back slice = %v, want 50", s)
	}
	// Gap is fully consumed; next goes to the tail.
	if s := tl.reserve(0, 1); s != 110 {
		t.Fatalf("tail = %v, want 110", s)
	}
}

func TestTimelineReadyInsideGap(t *testing.T) {
	var tl timeline
	tl.reserve(100, 10)
	// Ready at 95: gap [0,100) has only 5 units after ready; must not fit
	// a 10-unit reservation, so it goes to the tail.
	if s := tl.reserve(95, 10); s != 110 {
		t.Fatalf("start = %v, want 110", s)
	}
}

func TestTimelineGapOverflowDropsSmallest(t *testing.T) {
	var tl timeline
	// Create maxGaps+8 gaps of increasing size.
	at := Time(0)
	for i := 0; i < maxGaps+8; i++ {
		at += Time(i + 1) // gap of size i+1
		tl.reserve(at, 1)
		at++
	}
	if len(tl.gaps) > maxGaps {
		t.Fatalf("gap list grew to %d > %d", len(tl.gaps), maxGaps)
	}
	// The timeline must still function after overflow.
	s := tl.reserve(0, 1)
	if s < 0 {
		t.Fatal("reserve failed after overflow")
	}
}

func TestTimelineNegativeDurationPanics(t *testing.T) {
	var tl timeline
	defer func() {
		if recover() == nil {
			t.Error("negative duration did not panic")
		}
	}()
	tl.reserve(0, -1)
}

// Property: reservations never overlap and never start before ready, and
// gaps stay sorted and disjoint.
func TestTimelineInvariantProperty(t *testing.T) {
	f := func(ops []uint32) bool {
		var tl timeline
		type span struct{ s, e Time }
		var spans []span
		for _, op := range ops {
			ready := Time(op % 5000)
			dur := Time(op%37) + 1
			s := tl.reserve(ready, dur)
			if s < ready {
				return false
			}
			for _, sp := range spans {
				if s < sp.e && sp.s < s+dur {
					return false
				}
			}
			spans = append(spans, span{s, s + dur})
			// Gap list invariants.
			for i := range tl.gaps {
				if tl.gaps[i].end <= tl.gaps[i].start {
					return false
				}
				if i > 0 && tl.gaps[i].start < tl.gaps[i-1].end {
					return false
				}
				if tl.gaps[i].end > tl.tail {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// refTimeline is the bounded gap list's reference eviction policy, written
// out plainly: earliest-fit placement over the gaps that end after ready,
// and on a full-list insert a scan that evicts the smallest gap (earliest
// start on ties) unless no gap is strictly smaller than the new one, in
// which case the new gap is dropped.
type refTimeline struct {
	gaps   []gap
	tail   Time
	evicts int
	drops  int
}

func (r *refTimeline) reserve(ready, dur Time) Time {
	for i, g := range r.gaps {
		if g.end <= ready {
			continue
		}
		s := MaxTime(g.start, ready)
		if s+dur > g.end {
			continue
		}
		switch {
		case s == g.start && s+dur == g.end:
			r.gaps = slices.Delete(r.gaps, i, i+1)
		case s == g.start:
			r.gaps[i].start = s + dur
		case s+dur == g.end:
			r.gaps[i].end = s
		default:
			r.gaps[i].end = s
			r.insert(gap{s + dur, g.end}, i+1)
		}
		return s
	}
	s := MaxTime(ready, r.tail)
	if s > r.tail {
		r.insert(gap{r.tail, s}, len(r.gaps))
	}
	r.tail = s + dur
	return s
}

func (r *refTimeline) insert(g gap, i int) {
	if len(r.gaps) >= maxGaps {
		si, smallest := -1, g.end-g.start
		for j, h := range r.gaps {
			if d := h.end - h.start; d < smallest {
				smallest, si = d, j
			}
		}
		if si < 0 {
			r.drops++
			return
		}
		r.evicts++
		if si < i {
			i--
		}
		r.gaps = slices.Delete(r.gaps, si, si+1)
	}
	r.gaps = slices.Insert(r.gaps, i, g)
}

// Differential property: over streams far longer than maxGaps, with gap and
// request lengths drawn from a handful of values so equal-length gaps are
// the norm, every start time and the surviving gap list match the reference
// eviction policy after every reservation.
func TestTimelineEvictionDifferential(t *testing.T) {
	var evicts, drops int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tl timeline
		var ref refTimeline
		for op := 0; op < 4000; op++ {
			var ready Time
			if rng.Intn(3) == 0 {
				// Back-fill: ready somewhere in the recent past.
				ready = MaxTime(0, ref.tail-Time(rng.Intn(400)))
			} else {
				// Advance past the tail, leaving a gap of a few fixed sizes.
				ready = ref.tail + Time(rng.Intn(5)*(1+rng.Intn(3)))
			}
			dur := Time([]int{1, 1, 2, 2, 3, 4, 8}[rng.Intn(7)])
			got, want := tl.reserve(ready, dur), ref.reserve(ready, dur)
			if got != want {
				t.Fatalf("seed %d op %d: reserve(%v, %v) = %v, reference %v", seed, op, ready, dur, got, want)
			}
			if !slices.Equal(tl.gaps, ref.gaps) || tl.tail != ref.tail {
				t.Fatalf("seed %d op %d: gap list diverged from the reference\n got %v tail %v\nwant %v tail %v",
					seed, op, tl.gaps, tl.tail, ref.gaps, ref.tail)
			}
		}
		evicts += ref.evicts
		drops += ref.drops
	}
	// The streams must exercise both outcomes of a full-list insert.
	if evicts < 1000 || drops < 1000 {
		t.Fatalf("streams too tame: %d evictions, %d drops", evicts, drops)
	}
}

package horus

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// renderFig6 runs Fig. 6 through the episode engine at the given worker
// count and returns the rendered table plus the merged metrics snapshot.
func renderFig6(t testing.TB, workers int) (string, string) {
	t.Helper()
	cfg := TestConfig()
	cfg.Metrics = NewMetricsRegistry()
	set, err := RunDrainSetCtx(context.Background(), cfg, Fig6Schemes(), SweepOptions{Parallel: workers})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := cfg.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return Fig6{Set: set}.Table().String(), b.String()
}

// renderLLCSweep runs the Fig. 14/15 LLC sweep through the engine at the
// given worker count and returns both rendered tables plus merged metrics.
func renderLLCSweep(t testing.TB, workers int) (string, string) {
	t.Helper()
	cfg := TestConfig()
	cfg.Metrics = NewMetricsRegistry()
	// Small LLC points keep the grid fast enough for the -race CI step while
	// still interleaving sizes and schemes across workers.
	sizes := []int{1 << 20, 2 << 20}
	sw, err := RunLLCSweepCtx(context.Background(), cfg, sizes,
		[]Scheme{BaseLU, HorusSLM, HorusDLM}, SweepOptions{Parallel: workers})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := cfg.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return sw.Fig14Table().String() + sw.Fig15Table().String(), b.String()
}

// TestSweepDeterminismFig6 is the engine's headline contract: figure output
// and merged metrics are byte-identical whether episodes run on one worker
// or eight.
func TestSweepDeterminismFig6(t *testing.T) {
	seqTab, seqProm := renderFig6(t, 1)
	parTab, parProm := renderFig6(t, 8)
	if seqTab != parTab {
		t.Errorf("Fig6 table differs between -parallel 1 and 8:\n--- seq ---\n%s\n--- par ---\n%s", seqTab, parTab)
	}
	if seqProm != parProm {
		t.Error("Fig6 merged metrics differ between -parallel 1 and 8")
	}
	if !strings.Contains(seqTab, "Base-LU") {
		t.Error("Fig6 table missing rows")
	}
}

// TestSweepDeterminismLLC extends the byte-identity contract to the
// multi-size LLC sweep, whose grid interleaves sizes and schemes.
func TestSweepDeterminismLLC(t *testing.T) {
	seqTab, seqProm := renderLLCSweep(t, 1)
	parTab, parProm := renderLLCSweep(t, 8)
	if seqTab != parTab {
		t.Errorf("LLC sweep tables differ between -parallel 1 and 8:\n--- seq ---\n%s\n--- par ---\n%s", seqTab, parTab)
	}
	if seqProm != parProm {
		t.Error("LLC sweep merged metrics differ between -parallel 1 and 8")
	}
}

// TestSweepGridPartialResults exercises the no-first-error-abort policy at
// the grid level: an unregistered scheme fails its own point only.
func TestSweepGridPartialResults(t *testing.T) {
	cfg := TestConfig()
	bogus := Scheme(97)
	prs, err := RunDrainGrid(context.Background(), []DrainPoint{
		{Config: cfg, Scheme: NonSecure},
		{Config: cfg, Scheme: bogus},
		{Config: cfg, Scheme: HorusSLM},
	}, SweepOptions{Parallel: 2})
	if err == nil {
		t.Fatal("grid with a bogus scheme must report an error")
	}
	var serr *SweepError
	if !errors.As(err, &serr) {
		t.Fatalf("error is %T, want *SweepError", err)
	}
	if len(serr.Failed) != 1 || serr.Total != 3 {
		t.Fatalf("aggregate = %d/%d failed, want 1/3", len(serr.Failed), serr.Total)
	}
	if prs[0].Err != nil || prs[2].Err != nil {
		t.Errorf("healthy points failed: %v / %v", prs[0].Err, prs[2].Err)
	}
	if prs[0].Result.BlocksDrained == 0 || prs[2].Result.BlocksDrained == 0 {
		t.Error("healthy points lost their results")
	}
	if prs[1].Err == nil {
		t.Error("bogus point must carry its own error")
	}
}

// BenchmarkSweepParallel measures engine throughput on the LLC sweep at one
// vs several workers; CI records the comparison in BENCH_sweep.json.
func BenchmarkSweepParallel(b *testing.B) {
	cfg := TestConfig()
	sizes := []int{4 << 20, 8 << 20}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunLLCSweepCtx(context.Background(), cfg, sizes, AllSchemes(),
					SweepOptions{Parallel: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

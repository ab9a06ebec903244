package horus

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// TestTortureMatrixNoSilentCorruption is the acceptance gate of the crash
// matrix: every enumerated drain step × every fault flavor × all four secure
// schemes must end in exact restoration, authentic partial state, or a typed
// detection error — never silent corruption, never an internal error. Short
// mode samples the crash points; the full run enumerates every one.
func TestTortureMatrixNoSilentCorruption(t *testing.T) {
	tc := TortureConfig{Config: TestConfig()}
	if testing.Short() {
		tc.Stride, tc.MaxPoints = 7, 10
	}
	tc.Config.Metrics = NewMetricsRegistry()
	rep, err := RunTortureMatrix(context.Background(), tc, SweepOptions{Parallel: 4})
	if err != nil {
		t.Fatalf("matrix: %v", err)
	}
	if len(rep.Cells) == 0 {
		t.Fatal("matrix produced no cells")
	}
	if len(rep.Steps) != 4 {
		t.Fatalf("expected 4 schemes, got steps %v", rep.Steps)
	}
	for s, n := range rep.Steps {
		if n == 0 {
			t.Errorf("%v episode counted zero drain steps", s)
		}
	}
	schemes := map[Scheme]bool{}
	flavors := map[CrashFlavor]bool{}
	outcomes := map[CrashOutcome]int{}
	for _, c := range rep.Cells {
		schemes[c.Scheme] = true
		flavors[c.Flavor] = true
		outcomes[c.Outcome]++
		if c.Outcome == OutcomeRestored && c.Detail != "" {
			t.Errorf("%s: restored cell carries detail %q", c.Label(), c.Detail)
		}
	}
	if len(flavors) != len(AllCrashFlavors()) {
		t.Errorf("matrix covered flavors %v, want all %v", flavors, AllCrashFlavors())
	}
	for _, f := range rep.Failures() {
		t.Errorf("contract violation at %s (stage %q, cat %q): %s — %s",
			f.Label(), f.Fired.Stage, f.Fired.Cat, f.Outcome, f.Detail)
	}
	// The matrix must actually exercise both sides of the contract: some
	// crashes are detected, and some leave a fully or partially authentic
	// image. A matrix that only ever detects (or only ever restores) means
	// the oracle degenerated.
	if outcomes[OutcomeDetected] == 0 {
		t.Error("no cell was detected — fault injection is not reaching the persistence path")
	}
	if outcomes[OutcomeRestored]+outcomes[OutcomePartial] == 0 {
		t.Error("no cell restored any state — recovery never succeeded under faults")
	}
	// Outcome counters land on the caller's registry, labelled per cell.
	var prom strings.Builder
	if err := tc.Config.Metrics.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "horus_torture_cells_total") {
		t.Error("horus_torture_cells_total missing from the metrics registry")
	}
	// The report tables must cover every cell.
	if got := len(rep.CellTable().Rows); got != len(rep.Cells) {
		t.Errorf("cell table has %d rows, want %d", got, len(rep.Cells))
	}
	if got := len(rep.Table().Rows); got != len(schemes)*len(flavors) {
		t.Errorf("summary table has %d rows, want %d", got, len(schemes)*len(flavors))
	}
}

// TestTortureMatrixDeterministicUnderParallel runs the same sampled matrix
// with one worker and with four and requires bit-identical cell verdicts:
// scheduling must not perturb seeds, fault parameters, or classification.
func TestTortureMatrixDeterministicUnderParallel(t *testing.T) {
	tc := TortureConfig{Config: TestConfig(), Stride: 5, MaxPoints: 8}
	run := func(parallel int) []TortureCell {
		rep, err := RunTortureMatrix(context.Background(), tc, SweepOptions{Parallel: parallel})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return rep.Cells
	}
	serial := run(1)
	concurrent := run(4)
	if !reflect.DeepEqual(serial, concurrent) {
		for i := range serial {
			if i < len(concurrent) && !reflect.DeepEqual(serial[i], concurrent[i]) {
				t.Fatalf("cell %d differs:\n  1 worker:  %+v\n  4 workers: %+v", i, serial[i], concurrent[i])
			}
		}
		t.Fatalf("cell count differs: %d vs %d", len(serial), len(concurrent))
	}
}

// TestTortureMatrixIgnoresTimelineRecorder: a recorder on the matrix config
// is not handed to the cells, which run in parallel and would otherwise race
// on it (go test -race flags the shared stage writes), and the verdicts
// match a matrix run without one.
func TestTortureMatrixIgnoresTimelineRecorder(t *testing.T) {
	tc := TortureConfig{Config: TestConfig(), Schemes: []Scheme{HorusSLM}, Flavors: []CrashFlavor{CrashBitFlip}, Stride: 7, MaxPoints: 4}
	plain, err := RunTortureMatrix(context.Background(), tc, SweepOptions{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewTimelineRecorder(0)
	tc.Config.Timeline = rec
	traced, err := RunTortureMatrix(context.Background(), tc, SweepOptions{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Cells, traced.Cells) {
		t.Fatal("a timeline recorder on the config changed the matrix verdicts")
	}
	if n := rec.Len(); n != 0 {
		t.Fatalf("cells recorded %d events into the caller's recorder", n)
	}
}

// TestTortureMatrixRejectsNonSecure: the contract is about detection, which
// NonSecure cannot provide by design.
func TestTortureMatrixRejectsNonSecure(t *testing.T) {
	_, err := RunTortureMatrix(context.Background(), TortureConfig{
		Config:  TestConfig(),
		Schemes: []Scheme{NonSecure},
	}, SweepOptions{})
	if err == nil {
		t.Fatal("NonSecure was accepted into the torture matrix")
	}
}

// TestTortureSingleSchemeSubset exercises the flag-shaped narrowing the CLI
// uses: one scheme, one flavor, strided points.
func TestTortureSingleSchemeSubset(t *testing.T) {
	rep, err := RunTortureMatrix(context.Background(), TortureConfig{
		Config:  TestConfig(),
		Schemes: []Scheme{HorusDLM},
		Flavors: []CrashFlavor{CrashTornWrite},
		Stride:  3,
	}, SweepOptions{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Cells {
		if c.Scheme != HorusDLM || c.Flavor != CrashTornWrite {
			t.Fatalf("unexpected cell %s", c.Label())
		}
	}
	if !rep.Ok() {
		t.Fatalf("subset matrix failed: %v", rep.Failures())
	}
}

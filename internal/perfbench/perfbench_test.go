package perfbench

import (
	"bytes"
	"errors"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestRunStatisticsAndOrdering(t *testing.T) {
	var s Suite
	calls := 0
	s.Register("b-second", func() error {
		// Deterministic allocation signature: 100 heap objects per episode.
		for i := 0; i < 100; i++ {
			sink = append(sink, new(int64))
		}
		sink = sink[:0]
		return nil
	})
	s.Register("a-first", func() error { calls++; return nil })

	rep, err := s.Run(Options{Reps: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Warmup + 5 measured repetitions.
	if calls != 6 {
		t.Fatalf("benchmark ran %d times, want 6 (1 warmup + 5 reps)", calls)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(rep.Results))
	}
	// Results are sorted by name regardless of registration order.
	if rep.Results[0].Name != "a-first" || rep.Results[1].Name != "b-second" {
		t.Fatalf("results not sorted: %q, %q", rep.Results[0].Name, rep.Results[1].Name)
	}
	r := rep.Results[1]
	if r.Reps != 5 || len(r.SamplesNs) != 5 {
		t.Fatalf("reps=%d samples=%d, want 5/5", r.Reps, len(r.SamplesNs))
	}
	if r.P10Ns > r.MedianNs || r.MedianNs > r.P90Ns {
		t.Fatalf("quantiles out of order: p10=%v median=%v p90=%v", r.P10Ns, r.MedianNs, r.P90Ns)
	}
	if r.AllocsPerOp < 100 {
		t.Fatalf("allocs/op = %d, want >= 100 (the loop allocates 100 objects)", r.AllocsPerOp)
	}
}

var sink []*int64

func TestRunFilterAndError(t *testing.T) {
	var s Suite
	s.Register("keep/me", func() error { return nil })
	s.Register("drop/me", func() error { return errors.New("boom") })

	rep, err := s.Run(Options{Reps: 1, Filter: regexp.MustCompile(`^keep/`)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || rep.Results[0].Name != "keep/me" {
		t.Fatalf("filter not applied: %+v", rep.Results)
	}
	if _, err := s.Run(Options{Reps: 1}); err == nil || !strings.Contains(err.Error(), "drop/me") {
		t.Fatalf("benchmark error not surfaced: %v", err)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	var s Suite
	s.Register("x", func() error { return nil })
	s.Register("x", func() error { return nil })
}

func TestQuantile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50}
	cases := []struct {
		q, want float64
	}{
		{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.1, 14},
	}
	for _, c := range cases {
		if got := quantile(sorted, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(empty) = %v, want 0", got)
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("quantile(single) = %v, want 7", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	var s Suite
	s.Register("episode", func() error { return nil })
	rep, err := s.Run(Options{Reps: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != Schema || len(back.Results) != 1 || back.Results[0].Name != "episode" {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	if back.Results[0].MedianNs != rep.Results[0].MedianNs {
		t.Fatalf("median changed across round trip: %v != %v",
			back.Results[0].MedianNs, rep.Results[0].MedianNs)
	}
}

func mkReport(results ...Result) *Report {
	return &Report{Schema: Schema, Reps: 7, Results: results}
}

func TestCompareStatuses(t *testing.T) {
	base := mkReport(
		Result{Name: "same", MedianNs: 1000, AllocsPerOp: 50},
		Result{Name: "warn", MedianNs: 1000, AllocsPerOp: 50},
		Result{Name: "fail", MedianNs: 1000, AllocsPerOp: 50},
		Result{Name: "alloc-regress", MedianNs: 1000, AllocsPerOp: 50},
		Result{Name: "gone", MedianNs: 1000, AllocsPerOp: 50},
	)
	cur := mkReport(
		Result{Name: "same", MedianNs: 1050, AllocsPerOp: 50},
		Result{Name: "warn", MedianNs: 1200, AllocsPerOp: 50},
		Result{Name: "fail", MedianNs: 1400, AllocsPerOp: 50},
		// Time fine, but the deterministic alloc count grew past warn.
		Result{Name: "alloc-regress", MedianNs: 1000, AllocsPerOp: 60},
		Result{Name: "fresh", MedianNs: 1, AllocsPerOp: 1},
	)
	deltas := Compare(base, cur, 0.10, 0.30)
	want := map[string]string{
		"same":          StatusOK,
		"warn":          StatusWarn,
		"fail":          StatusFail,
		"alloc-regress": StatusFail,
		"fresh":         StatusNew,
		"gone":          StatusMissing,
	}
	if len(deltas) != len(want) {
		t.Fatalf("got %d deltas, want %d: %+v", len(deltas), len(want), deltas)
	}
	for _, d := range deltas {
		if d.Status != want[d.Name] {
			t.Errorf("%s: status %q, want %q", d.Name, d.Status, want[d.Name])
		}
	}
	if !AnyFail(deltas) {
		t.Error("AnyFail = false with failing deltas present")
	}
	var buf bytes.Buffer
	FormatDeltas(&buf, deltas)
	if !strings.Contains(buf.String(), "alloc-regress") {
		t.Errorf("formatted table missing a row:\n%s", buf.String())
	}

	okOnly := Compare(base, base, 0.10, 0.30)
	if AnyFail(okOnly) {
		t.Error("self-comparison reported a failure")
	}
}

// TestCompareFailsOnByteGrowth pins the bytes/op gate: an episode whose
// allocation count barely moves but whose allocated bytes grow past the
// warn ratio fails, as a store pre-sized far beyond its use once inflated
// torture/smoke's bytes 16-fold with allocs/op moving 1.5%. Bytes growth
// within the warn ratio passes.
func TestCompareFailsOnByteGrowth(t *testing.T) {
	base := mkReport(
		Result{Name: "inflated", MedianNs: 1000, AllocsPerOp: 38505, BytesPerOp: 23 << 20},
		Result{Name: "steady", MedianNs: 1000, AllocsPerOp: 38505, BytesPerOp: 23 << 20},
	)
	cur := mkReport(
		Result{Name: "inflated", MedianNs: 1000, AllocsPerOp: 39075, BytesPerOp: 372 << 20},
		Result{Name: "steady", MedianNs: 1000, AllocsPerOp: 38505, BytesPerOp: 24 << 20},
	)
	deltas := Compare(base, cur, 0.10, 0.30)
	want := map[string]string{"inflated": StatusFail, "steady": StatusOK}
	for _, d := range deltas {
		if d.Status != want[d.Name] {
			t.Errorf("%s: status %q, want %q", d.Name, d.Status, want[d.Name])
		}
		if d.BaseBytes != 23<<20 || d.CurBytes == 0 {
			t.Errorf("%s: bytes %d -> %d not carried into the delta", d.Name, d.BaseBytes, d.CurBytes)
		}
	}
	var buf bytes.Buffer
	FormatDeltas(&buf, deltas)
	if !strings.Contains(buf.String(), "cur-bytes") || !strings.Contains(buf.String(), "390070272") {
		t.Errorf("formatted table missing the bytes columns:\n%s", buf.String())
	}
}

// TestCompareOneSidedNeverFails pins the promise the status values exist
// for: a benchmark present on only one side — newly added, or retired —
// is reported (StatusNew / StatusMissing) but can never fail the gate, so
// adding or removing benchmarks does not require regenerating the baseline
// in the same change.
func TestCompareOneSidedNeverFails(t *testing.T) {
	base := mkReport(Result{Name: "retired", MedianNs: 1000, AllocsPerOp: 10})
	cur := mkReport(Result{Name: "added", MedianNs: 999_999, AllocsPerOp: 99})
	deltas := Compare(base, cur, 0.10, 0.30)
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas, want 2: %+v", len(deltas), deltas)
	}
	for _, d := range deltas {
		if d.Status != StatusNew && d.Status != StatusMissing {
			t.Errorf("%s: status %q, want one-sided", d.Name, d.Status)
		}
	}
	if AnyFail(deltas) {
		t.Error("one-sided rows failed the comparison")
	}
}

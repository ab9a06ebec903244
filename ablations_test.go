package horus

import (
	"strings"
	"testing"
)

func TestRunAblationsTestScale(t *testing.T) {
	a, err := RunAblations(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	// One table per study, in order, each with one row per case (the tree
	// profile has one row per metadata level instead).
	want := []struct {
		title string
		rows  int
	}{
		{"pre-crash content pattern", 3},
		{"protected-memory capacity", 3},
		{"verification-walk fetch profile", 0},
		{"CHV recovery read-back model", 2},
		{"integrity-tree cache size", 3},
		{"NVM bank count", 3},
		{"NVM write latency", 3},
		{"victim policy", 2},
		{"recovery-aware baseline drain", 2},
		{"recovery mechanism", 3},
		{"CHV rotation", 2},
	}
	if len(a) != len(want) {
		t.Fatalf("%d ablation tables, want %d", len(a), len(want))
	}
	for i, w := range want {
		tbl := a[i]
		if !strings.Contains(tbl.Title, w.title) {
			t.Errorf("table %d is %q, want the %s study", i, tbl.Title, w.title)
		}
		if w.rows > 0 && len(tbl.Rows) != w.rows {
			t.Errorf("%s: %d rows, want %d", tbl.Title, len(tbl.Rows), w.rows)
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Header) {
				t.Errorf("%s: row %q has %d cells for %d columns", tbl.Title, row, len(row), len(tbl.Header))
			}
		}
	}
	// The fill-pattern table must show the baseline's sensitivity: dense
	// row cheaper than the shuffled row.
	out := a[0].String()
	if !strings.Contains(out, "dense") || !strings.Contains(out, "shuffled") {
		t.Error("fill-pattern rows missing")
	}
	// The tree profile must include the counter level.
	if !strings.Contains(a[2].String(), "L0") {
		t.Error("tree profile missing L0")
	}
	// The recovery-mechanism table compares the three recovery designs.
	for i, name := range []string{"Horus CHV", "Anubis vault", "Osiris rebuild"} {
		if got := a[9].Rows[i][0]; got != name {
			t.Errorf("recovery mechanism row %d is %q, want %q", i, got, name)
		}
	}
}

func TestConfigHierarchyDefaults(t *testing.T) {
	var c Config
	h := c.hierarchyConfig()
	if h.TotalLines() != 295936 {
		t.Errorf("zero-value LLC should default to Table I (%d lines)", h.TotalLines())
	}
	c.LLCBytes = 8 << 20
	if c.hierarchyConfig().Levels[2].SizeBytes != 8<<20 {
		t.Error("LLCBytes override ignored")
	}
}

func TestNonSecureSkipsWarmup(t *testing.T) {
	cfg := TestConfig()
	sys := NewSystem(cfg, NonSecure)
	if err := sys.Warmup(); err != nil {
		t.Fatal(err)
	}
	if sys.Core.NVM.TotalWrites() != 0 {
		t.Error("non-secure warmup touched memory")
	}
}

func TestRecoverSerialRejectsBaselineState(t *testing.T) {
	cfg := TestConfig()
	sys := NewSystem(cfg, BaseLU)
	sys.Fill()
	res, err := sys.Drain()
	if err != nil {
		t.Fatal(err)
	}
	sys.Crash()
	if _, err := RecoverSerial(sys, res.Persist); err == nil {
		t.Error("RecoverSerial accepted baseline persistent state")
	}
	if _, err := RecoverParallel(sys, res.Persist); err == nil {
		t.Error("RecoverParallel accepted baseline persistent state")
	}
}

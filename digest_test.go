package horus

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/sim"
)

// Regenerate the digest after an intentional change to simulated output:
//
//	go test -run TestResultDigestGolden -update .
//
// and explain the change where the commit is described.
var update = flag.Bool("update", false, "rewrite golden files with the current output")

const digestGolden = "testdata/digest.golden"

// TestResultDigestGolden pins the simulated output at test scale against a
// committed digest rather than against a second run of the same code: for
// every scheme, the drain's Result counters, drain time, energy, a hash of
// the persistent registers, a hash of the sorted NVM image and the outcome
// of crash + recovery, and a hash of the drain's access-trace CSV (the
// horus-drain -access-trace bytes); plus a hash of a strided crash-matrix
// cell table and of a small litmus run's cell and coverage tables; plus a
// hash of the figure and table views of one drain set (Figs. 6/11/12/13,
// Tables II/III, the headline) and one hash per ablation table.
// Any refactor that changes a simulated byte fails here.
func TestResultDigestGolden(t *testing.T) {
	var b bytes.Buffer
	for _, scheme := range AllSchemes() {
		line, access := schemeDigest(t, scheme)
		b.WriteString(line)
		b.WriteByte('\n')
		b.WriteString(access)
		b.WriteByte('\n')
	}
	rep, err := RunTortureMatrix(context.Background(),
		TortureConfig{Config: TestConfig(), Stride: 7}, SweepOptions{Parallel: 2})
	if err != nil {
		t.Fatalf("torture matrix: %v", err)
	}
	fmt.Fprintf(&b, "torture stride=7 cells=%d table=%s\n", len(rep.Cells), digestOf([]byte(rep.CellTable().String())))
	lit, err := RunLitmus(context.Background(), testLitmusConfig(), SweepOptions{Parallel: 2})
	if err != nil {
		t.Fatalf("litmus: %v", err)
	}
	fmt.Fprintf(&b, "litmus cells=%d coverage=%d cell_table=%s coverage_table=%s\n", len(lit.Cells), len(lit.Coverage),
		digestOf([]byte(lit.CellTable().String())), digestOf([]byte(lit.CoverageTable().String())))
	set, err := RunDrainSet(TestConfig(), AllSchemes())
	if err != nil {
		t.Fatalf("drain set: %v", err)
	}
	var figs strings.Builder
	tables := figureTables(set)
	for _, tbl := range tables {
		figs.WriteString(tbl.String())
	}
	fmt.Fprintf(&b, "figures tables=%d digest=%s\n", len(tables), digestOf([]byte(figs.String())))
	abl, err := RunAblations(TestConfig())
	if err != nil {
		t.Fatalf("ablations: %v", err)
	}
	for _, tbl := range abl {
		fmt.Fprintf(&b, "ablation %q rows=%d table=%s\n", tbl.Title, len(tbl.Rows), digestOf([]byte(tbl.String())))
	}

	got := b.Bytes()
	if *update {
		if err := os.MkdirAll(filepath.Dir(digestGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestGolden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("simulated output differs from %s (rerun with -update if intentional)\n--- got ---\n%s--- want ---\n%s",
			digestGolden, got, want)
	}
}

// schemeDigest runs one warmup/fill/drain/crash/recover episode at
// TestConfig and renders its observable output as one line, plus a second
// line hashing the drain's access-trace CSV.
func schemeDigest(t *testing.T, scheme Scheme) (line, access string) {
	t.Helper()
	cfg := TestConfig()
	cfg.Timeline = NewTimelineRecorder(0)
	sys := NewSystem(cfg, scheme)
	if err := sys.Warmup(); err != nil {
		t.Fatalf("%v: warmup: %v", scheme, err)
	}
	sys.Fill()
	res, err := sys.Drain()
	if err != nil {
		t.Fatalf("%v: drain: %v", scheme, err)
	}
	var csv bytes.Buffer
	if err := cfg.Timeline.Recording().WriteAccessCSV(&csv); err != nil {
		t.Fatalf("%v: access csv: %v", scheme, err)
	}
	rows := bytes.Count(csv.Bytes(), []byte("\n")) - 2 // less header and trailer
	access = fmt.Sprintf("%v access_csv rows=%d csv=%s", scheme, rows, digestOf(csv.Bytes()))

	store := sys.Core.NVM.Store()
	addrs := store.AddressesInRange(0, math.MaxUint64)
	h := sha256.New()
	for _, a := range addrs {
		blk := store.ReadBlock(a)
		h.Write(binary.LittleEndian.AppendUint64(nil, a))
		h.Write(blk[:])
	}
	e := cfg.EnergyOf(res)
	line = fmt.Sprintf("%v drain_ps=%d blocks=%d aes=%d reads=[%v] writes=[%v] macs=[%v] energy_j=%s/%s/%s persist=%s nvm=%d:%x",
		scheme, int64(res.DrainTime), res.BlocksDrained, res.AESOps,
		res.MemReads, res.MemWrites, res.MACCalcs,
		fmtFloat(e.ProcessorJ), fmtFloat(e.NVMWriteJ), fmtFloat(e.NVMReadJ),
		digestOf([]byte(fmt.Sprintf("%+v", res.Persist))), len(addrs), h.Sum(nil)[:8])

	sys.Crash()
	rec, err := sys.Recover(res.Persist)
	if err != nil {
		return line + " recover=" + err.Error(), access
	}
	line += fmt.Sprintf(" recover=ok recover_ps=%d", int64(rec.Time()))
	if rec.Baseline != nil {
		line += fmt.Sprintf(" vault_lines=%d vault_reads=%d vault_macs=%d",
			rec.Baseline.LinesRestored, total(rec.Baseline.MemReads), rec.Baseline.MACCalcs)
	}
	if rec.Horus != nil {
		var blocks bytes.Buffer
		for _, d := range rec.Horus.Blocks {
			blocks.Write(binary.LittleEndian.AppendUint64(nil, d.Addr))
			blocks.Write(d.Data[:])
		}
		line += fmt.Sprintf(" chv_blocks=%d chv_reads=%d chv_macs=%d chv_data=%s",
			len(rec.Horus.Blocks), total(rec.Horus.MemReads), rec.Horus.MACCalcs, digestOf(blocks.Bytes()))
	}
	return line, access
}

// total is CounterSet.Total for a set a path may leave nil.
func total(cs *sim.CounterSet) int64 {
	if cs == nil {
		return 0
	}
	return cs.Total()
}

// figureTables renders the paper's figure and table views of one drain set,
// in the order horus-experiments prints them.
func figureTables(set *DrainSet) []*report.Table {
	return []*report.Table{
		Fig6{Set: set}.Table(), Fig11{Set: set}.Table(), Fig12{Set: set}.Table(), Fig13{Set: set}.Table(),
		Table2{Set: set}.Table(), Table3{Set: set}.Table(), NewHeadline(set).Table(),
	}
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%x", sum[:8])
}

// fmtFloat renders a float exactly (shortest round-trip form).
func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

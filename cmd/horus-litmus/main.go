// Command horus-litmus runs the persistency-litmus reordering checker and the
// corruption-detection coverage sweep. It records one fault-free drain per
// secure scheme, segments the recorded NVM writes into persist epochs (between
// ordering barriers), and explores admissible write reorderings within each
// epoch — exhaustively for small epochs, seeded sampling plus adversarial
// heuristics for large ones. Every ordering is materialised as a crash image
// and pushed through recovery: each must end in exact restoration, authentic
// partial state, or a typed detection error. The coverage sweep then corrupts
// the completed drain image (bit flips, bursts, whole lines, rollback replays)
// region by region and reports per-scheme detection probabilities.
//
// A silent-corruption witness fails the run (exit 1) and prints the minimized
// ordering trace that reproduces it.
//
// Examples:
//
//	horus-litmus                                   # all secure schemes, all models
//	horus-litmus -scheme slm -epochs 4             # one scheme, thinned epochs
//	horus-litmus -max-orderings 256 -parallel 8    # deeper sampling
//	horus-litmus -corrupt single-bit,rollback      # narrower coverage sweep
//	horus-litmus -csv cells.csv -coverage-csv cov.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	horus "repro"
	"repro/internal/cliutil"
)

func main() {
	var (
		schemeFlag = flag.String("scheme", "secure", "comma-separated drain designs to check, or \"secure\" for all four secure ones")
		corrupt    = flag.String("corrupt", "all", "comma-separated corruption models: single-bit, multi-bit, burst, whole-line, rollback, rollback-group (\"all\", or \"none\" to skip the coverage sweep)")
		trials     = flag.Int("trials", 0, "corruption trials per (scheme, model, target) cell (0 = 6)")
		workload   = flag.String("workload", "uniform", "workload shape: kv|txlog|zipf|uniform|sequential|graph")
		ops        = flag.Int("ops", 4000, "workload operations before the crash episode")
		scaleFlag  = flag.String("scale", "test", "paper (Table I scale) | test (scaled down)")
		seed       = flag.Int64("seed", 1, "base seed; ordering and trial seeds derive deterministically from it")
		epochs     = flag.Int("epochs", 0, "cap explored epochs per scheme, evenly thinned keeping first and last (0 = all)")
		maxOrd     = flag.Int("max-orderings", 0, "distinct-ordering target per sampled epoch (0 = 128)")
		exhaustive = flag.Int("exhaustive", 0, "largest epoch enumerated exhaustively instead of sampled (0 = 5 writes)")
		parallel   = flag.Int("parallel", 0, "cell workers (0 = GOMAXPROCS); verdicts are identical at any setting")
		timeout    = flag.Duration("timeout", 0, "abort the sweep after this long (0 = no limit)")
		csvPath    = flag.String("csv", "", "write the per-ordering cell table as CSV to this file")
		covCSV     = flag.String("coverage-csv", "", "write the coverage table as CSV to this file")
		cells      = flag.Bool("cells", false, "print the per-ordering cell table, not just the summaries")
		explain    = flag.Bool("explain", false, "print the detection-forensics table (failing check, region and provenance per detected cell or trial)")
	)
	mf := cliutil.AddMetricsFlags()
	pf := cliutil.AddProfileFlags()
	tfl := cliutil.AddTelemetryFlags(true)
	flag.Parse()
	if err := pf.Start(); err != nil {
		fatal(err)
	}
	defer pf.Stop()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg, err := cliutil.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	cfg.Seed = *seed
	cfg.Metrics = tfl.EnsureRegistry(mf.Registry())
	cfg.Timeseries = tfl.Sampler()
	if cfg.Timeseries == nil {
		// The no-silent-reordering SLO always runs; it needs the recorded
		// outcome series even without -ts or -serve.
		cfg.Timeseries = horus.NewTimeseriesSampler(tfl.WindowNs*1000, tfl.Capacity)
	}
	if err := tfl.StartServer(cfg.Metrics); err != nil {
		fatal(err)
	}

	lc := horus.LitmusConfig{
		Config:           cfg,
		MaxOrderings:     *maxOrd,
		ExhaustiveWrites: *exhaustive,
		MaxEpochs:        *epochs,
		CorruptTrials:    *trials,
	}
	if *schemeFlag != "" && !strings.EqualFold(*schemeFlag, "secure") {
		for _, name := range strings.Split(*schemeFlag, ",") {
			s, err := cliutil.ParseScheme(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			lc.Schemes = append(lc.Schemes, s)
		}
	}
	lc.Corrupt, err = horus.ParseCorruptionModels(*corrupt)
	if err != nil {
		fatal(err)
	}
	lc.NewWorkload = func(seed int64) *horus.Workload {
		w, err := cliutil.MakeWorkload(*workload, horus.WorkloadConfig{
			Ops:            *ops,
			WorkingSet:     1 << 20,
			Seed:           seed,
			PersistPercent: 10,
		})
		if err != nil {
			fatal(err)
		}
		return w
	}

	rep, err := horus.RunLitmus(ctx, lc, horus.SweepOptions{
		Parallel: *parallel, Timeout: *timeout, Progress: tfl.ProgressFunc(),
	})
	if err != nil {
		fatal(err)
	}

	if *cells {
		rep.CellTable().Fprint(os.Stdout)
	}
	rep.OrderingTable().Fprint(os.Stdout)
	if len(rep.Coverage) > 0 {
		fmt.Println()
		rep.CoverageTable().Fprint(os.Stdout)
	}
	if *explain {
		fmt.Println()
		rep.ForensicTable().Fprint(os.Stdout)
	}

	if *csvPath != "" {
		writeCSV(*csvPath, rep.CellTable(), len(rep.Cells), "ordering cells")
	}
	if *covCSV != "" {
		writeCSV(*covCSV, rep.CoverageTable(), len(rep.Coverage), "coverage cells")
	}
	if mf.Enabled() {
		if err := mf.Write(cfg.Metrics); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics: %s snapshot to %s\n", mf.Format, mf.Path)
	}

	// The silent-corruption SLO over the recorded per-ordering series:
	// stricter than rep.Ok() alone, it also fails a run that recorded no data.
	slo := horus.EvaluateSLO(horus.LitmusSLORules(), cfg.Timeseries.Snapshot())
	if !slo.Ok() {
		fmt.Println()
		slo.Table().Fprint(os.Stdout)
	}
	if err := tfl.WriteTimeseries(); err != nil {
		fatal(err)
	}
	tfl.Shutdown()

	if !rep.Ok() || !slo.Ok() {
		fmt.Fprintf(os.Stderr, "horus-litmus: %d contract violations across %d ordering and %d coverage cells\n",
			len(rep.Failures()), len(rep.Cells), len(rep.Coverage))
		if w := rep.Witness; w != nil {
			fmt.Fprintf(os.Stderr, "minimized witness for %s (%d of %d writes suffice):\n",
				w.Cell.Label(), len(w.Applied), w.Cell.EpochWrites)
			for _, line := range w.Trace {
				fmt.Fprintf(os.Stderr, "  %s\n", line)
			}
		}
		pf.Stop() // os.Exit skips defers; flush the profiles first
		os.Exit(1)
	}
	fmt.Printf("ok: %d orderings and %d coverage cells, zero silent corruption\n", len(rep.Cells), len(rep.Coverage))
}

// writeCSV writes one report table to path, exiting on error.
func writeCSV(path string, t interface{ WriteCSV(w io.Writer) error }, rows int, what string) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := t.WriteCSV(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %d rows to %s\n", what, rows, path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "horus-litmus:", err)
	os.Exit(1)
}

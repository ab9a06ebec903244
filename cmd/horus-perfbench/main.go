// Command horus-perfbench runs the statistical benchmark harness over the
// simulator's hot paths: each registered episode (all-scheme drains, a sweep
// smoke, a torture smoke, substrate microbenchmarks) runs N times (default
// 7) and the median/p10/p90 wall time plus per-episode allocation counts and
// bytes are written as BENCH_horus.json. Against a committed baseline the
// run becomes a regression gate: a median more than -fail (30%) slower — or
// any growth past -warn in allocation count or bytes, allocations being
// deterministic — exits 1; time growth past -warn (10%) prints a warning.
//
// Examples:
//
//	horus-perfbench                                  # run all, write BENCH_horus.json
//	horus-perfbench -filter '^drain/' -reps 11       # drains only, more reps
//	horus-perfbench -baseline BENCH_horus.json       # regression check vs baseline
//	horus-perfbench -list                            # names only, no run
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"time"

	horus "repro"
	"repro/internal/cliutil"
	"repro/internal/perfbench"
)

func main() {
	var (
		reps     = flag.Int("reps", perfbench.DefaultReps, "measured repetitions per benchmark (one extra warmup always runs)")
		filter   = flag.String("filter", "", "regexp restricting which benchmarks run")
		out      = flag.String("out", "BENCH_horus.json", "write the report JSON here (empty = don't write)")
		baseline = flag.String("baseline", "", "compare against this report; regressions past -fail exit 1")
		warn     = flag.Float64("warn", 0.10, "warn when the median regresses by more than this fraction")
		failAt   = flag.Float64("fail", 0.30, "fail when the median regresses by more than this fraction")
		list     = flag.Bool("list", false, "list benchmark names and exit")
	)
	tfl := cliutil.AddTelemetryFlags(true)
	flag.Parse()
	if *reps < 1 {
		fatal(fmt.Errorf("bad -reps %d (want >= 1)", *reps))
	}
	if *warn < 0 || *warn > *failAt {
		fatal(fmt.Errorf("bad -warn %g with -fail %g (want 0 <= warn <= fail)", *warn, *failAt))
	}

	var suite perfbench.Suite
	horus.RegisterPerfBenchmarks(&suite)

	if *list {
		for _, name := range suite.Names() {
			fmt.Println(name)
		}
		return
	}

	opts := perfbench.Options{Reps: *reps, Log: os.Stderr}
	if *filter != "" {
		re, err := regexp.Compile(*filter)
		if err != nil {
			fatal(fmt.Errorf("bad -filter: %w", err))
		}
		opts.Filter = re
	}
	if err := tfl.StartServer(nil); err != nil {
		fatal(err)
	}
	if progress := tfl.ProgressFunc(); progress != nil {
		start := time.Now()
		opts.OnProgress = func(done, total int, name string) {
			progress(horus.SweepProgress{
				Done: done, Total: total, Index: done - 1, Label: name,
				Elapsed: time.Since(start),
			})
		}
	}

	report, err := suite.Run(opts)
	if err != nil {
		fatal(err)
	}
	tfl.Shutdown()
	if *out != "" {
		if err := report.WriteJSON(*out); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d benchmarks, %d reps)\n", *out, len(report.Results), report.Reps)
	}

	if *baseline == "" {
		return
	}
	base, err := perfbench.ReadJSON(*baseline)
	if err != nil {
		fatal(err)
	}
	deltas := perfbench.Compare(base, report, *warn, *failAt)
	perfbench.FormatDeltas(os.Stdout, deltas)
	if perfbench.AnyFail(deltas) {
		fatal(fmt.Errorf("perfbench: regression past the fail threshold (%.0f%%)", *failAt*100))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "horus-perfbench:", err)
	os.Exit(1)
}

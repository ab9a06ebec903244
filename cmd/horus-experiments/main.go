// Command horus-experiments regenerates the paper's evaluation: every
// figure (6, 11, 12, 13, 14, 15, 16) and table (II, III) plus the
// abstract's headline claims, printed as aligned text tables with the
// paper's published values quoted in footnotes for comparison.
//
// Examples:
//
//	horus-experiments -exp all            # full Table I scale (minutes)
//	horus-experiments -exp fig11          # one experiment
//	horus-experiments -exp all -scale test  # scaled down (seconds)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	horus "repro"
	"repro/internal/cliutil"
	"repro/internal/report"
)

func main() {
	var (
		expFlag   = flag.String("exp", "all", "experiment: fig6 fig11 fig12 fig13 fig14 fig15 fig16 table2 table3 headline ablations all")
		scaleFlag = flag.String("scale", "paper", "paper (Table I scale) | test (scaled down)")
		seed      = flag.Int64("seed", 1, "fill/flush seed")
		csvDir    = flag.String("csv", "", "also write each table as CSV into this directory")
		parallel  = flag.Int("parallel", 0, "episode workers per sweep (0 = GOMAXPROCS); results are identical at any setting")
		timeout   = flag.Duration("timeout", 0, "abort sweeps that run longer than this (0 = no limit)")
	)
	mf := cliutil.AddMetricsFlags()
	tf := cliutil.AddTraceFlags()
	pf := cliutil.AddProfileFlags()
	tfl := cliutil.AddTelemetryFlags(true)
	flag.Parse()
	emitCSVTo = *csvDir
	if err := pf.Start(); err != nil {
		fatal(err)
	}
	defer pf.Stop()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var cfg horus.Config
	switch *scaleFlag {
	case "paper":
		cfg = horus.DefaultConfig()
	case "test":
		cfg = horus.TestConfig()
	default:
		fatal(fmt.Errorf("unknown scale %q", *scaleFlag))
	}
	cfg.Seed = *seed
	cfg.Metrics = tfl.EnsureRegistry(mf.Registry())
	cfg.Timeline = tf.Recorder()
	cfg.Timeseries = tfl.Sampler()
	if err := tfl.StartServer(cfg.Metrics); err != nil {
		fatal(err)
	}
	opts := horus.SweepOptions{Parallel: *parallel, Timeout: *timeout, Progress: tfl.ProgressFunc()}

	want := strings.Split(*expFlag, ",")
	has := func(name string) bool {
		for _, w := range want {
			if w == name || w == "all" {
				return true
			}
		}
		return false
	}

	// Figs. 6, 11, 12, 13, Tables II/III and the headline are views of one
	// drain per scheme; the timeline trace and attribution ride on it too.
	needSet := has("fig6") || has("fig11") || has("fig12") || has("fig13") ||
		has("table2") || has("table3") || has("headline") || tf.Enabled()
	var set *horus.DrainSet
	if needSet {
		var err error
		set, err = horus.RunDrainSetCtx(ctx, cfg, horus.AllSchemes(), opts)
		if err != nil {
			fatal(err)
		}
	}
	if tf.Enabled() {
		var recs []*horus.TimelineRecording
		var atts []horus.TimelineAttribution
		for _, s := range set.Schemes {
			if rec := set.Timelines[s]; rec != nil {
				recs = append(recs, rec)
				atts = append(atts, horus.AnalyzeTimeline(rec))
			}
		}
		if tf.Attrib {
			emit(report.AttributionTable(atts...))
		}
		if tf.Path != "" {
			if err := tf.WriteTrace(recs...); err != nil {
				fatal(err)
			}
			fmt.Printf("timeline: %d episodes to %s\n", len(recs), tf.Path)
		}
	}

	// view emits one table of the shared set when its experiment is asked for.
	view := func(name string, table func() *report.Table) {
		if has(name) {
			emit(table())
		}
	}
	view("fig6", horus.Fig6{Set: set}.Table)
	view("fig11", horus.Fig11{Set: set}.Table)
	view("fig12", horus.Fig12{Set: set}.Table)
	view("fig13", horus.Fig13{Set: set}.Table)
	if has("fig14") || has("fig15") {
		sizes := horus.Fig14LLCSizes()
		if *scaleFlag == "test" {
			sizes = []int{4 << 20, 8 << 20}
		}
		sw, err := horus.RunLLCSweepCtx(ctx, cfg, sizes, horus.AllSchemes(), opts)
		if err != nil {
			fatal(err)
		}
		if has("fig14") {
			emit(sw.Fig14Table())
		}
		if has("fig15") {
			emit(sw.Fig15Table())
		}
	}
	if has("fig16") {
		sizes := horus.Fig16LLCSizes()
		if *scaleFlag == "test" {
			sizes = []int{4 << 20, 8 << 20}
		}
		f16, err := horus.RunFig16Ctx(ctx, cfg, sizes, opts)
		if err != nil {
			fatal(err)
		}
		emit(f16.Table())
	}
	view("table2", horus.Table2{Set: set}.Table)
	view("table3", horus.Table3{Set: set}.Table)
	if has("ablations") {
		a, err := horus.RunAblationsCtx(ctx, cfg, opts)
		if err != nil {
			fatal(err)
		}
		for _, t := range a {
			emit(t)
		}
	}
	view("headline", func() *report.Table { return horus.NewHeadline(set).Table() })
	if mf.Enabled() {
		emit(report.SpanTree(cfg.Metrics))
		if err := mf.Write(cfg.Metrics); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics: %s snapshot to %s\n", mf.Format, mf.Path)
	}
	if err := tfl.WriteTimeseries(); err != nil {
		fatal(err)
	}
	tfl.Shutdown()
}

// emitCSVTo, when non-empty, is the directory tables are mirrored into.
var emitCSVTo string

// emit prints a table and optionally mirrors it as CSV.
func emit(t *report.Table) {
	t.Fprint(os.Stdout)
	if emitCSVTo == "" {
		return
	}
	name := slug(t.Title) + ".csv"
	f, err := os.Create(filepath.Join(emitCSVTo, name))
	if err != nil {
		fatal(err)
	}
	if err := t.WriteCSV(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

// slug turns a table title into a file name.
func slug(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == ':' || r == '/':
			b.WriteByte('-')
		}
	}
	return strings.Trim(strings.ReplaceAll(b.String(), "--", "-"), "-")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "horus-experiments:", err)
	os.Exit(1)
}

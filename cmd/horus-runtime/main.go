// Command horus-runtime runs application workloads on the simulated EPD
// machine: pick a workload class, a persistence domain (ADR vs EPD) and a
// drain design, run it, optionally crash mid-flight and recover, and print
// the run-time statistics that motivate the paper (§I, §II-A).
//
// Examples:
//
//	horus-runtime -workload kv -domain adr
//	horus-runtime -workload txlog -domain epd -crash -scheme horus-dlm
//	horus-runtime -workload zipf -compare-domains
package main

import (
	"flag"
	"fmt"
	"os"

	horus "repro"
	"repro/internal/cliutil"
	"repro/internal/report"
)

func main() {
	var (
		wlFlag     = flag.String("workload", "kv", "kv | txlog | zipf | uniform | sequential | graph")
		domainFlag = flag.String("domain", "epd", "adr | wpq | epd")
		schemeFlag = flag.String("scheme", "horus-slm", "drain design used on crash")
		ops        = flag.Int("ops", 20000, "operations to run")
		wsKB       = flag.Int("ws", 256, "working set in KB")
		persist    = flag.Int("persist", 25, "percent of writes followed by a persist")
		seed       = flag.Int64("seed", 1, "workload seed")
		crash      = flag.Bool("crash", false, "crash after the run, drain, and recover")
		compare    = flag.Bool("compare-domains", false, "run on both ADR and EPD and compare")
	)
	mf := cliutil.AddMetricsFlags()
	tf := cliutil.AddTraceFlags()
	pf := cliutil.AddProfileFlags()
	tfl := cliutil.AddTelemetryFlags(false)
	flag.Parse()
	if *ops < 0 {
		fatal(fmt.Errorf("bad -ops %d (want >= 0)", *ops))
	}
	if *persist < 0 || *persist > 100 {
		fatal(fmt.Errorf("bad -persist %d (want 0..100)", *persist))
	}
	if err := pf.Start(); err != nil {
		fatal(err)
	}
	defer pf.Stop()

	cfg := horus.TestConfig()
	cfg.Metrics = tfl.EnsureRegistry(mf.Registry())
	cfg.Timeline = tf.Recorder()
	cfg.Timeseries = tfl.Sampler()
	if err := tfl.StartServer(cfg.Metrics); err != nil {
		fatal(err)
	}
	defer tfl.Shutdown()
	defer func() {
		if err := tfl.WriteTimeseries(); err != nil {
			fatal(err)
		}
	}()
	wl, err := cliutil.MakeWorkload(*wlFlag, horus.WorkloadConfig{
		Ops: *ops, WorkingSet: uint64(*wsKB) << 10, Seed: *seed, PersistPercent: *persist,
	})
	if err != nil {
		fatal(err)
	}
	scheme, err := cliutil.ParseScheme(*schemeFlag)
	if err != nil {
		fatal(err)
	}

	if *compare {
		t := &report.Table{
			Title:  fmt.Sprintf("%s: run-time cost by persistence domain", wl.Name),
			Header: []string{"domain", "time", "persist flushes", "mem misses", "writebacks"},
		}
		var times [3]float64
		for i, d := range []horus.PersistDomain{horus.DomainADR, horus.DomainADRWPQ, horus.DomainEPD} {
			st, err := runOn(cfg, scheme, d, wl)
			if err != nil {
				fatal(err)
			}
			times[i] = st.Time.Seconds()
			t.AddRow(d.String(), st.Time.String(), report.Count(st.PersistFlush),
				report.Count(st.MissesToMem), report.Count(st.Writebacks))
		}
		t.AddNote("EPD speedup over ADR: %.2fx; WPQ recovers %.0f%% of the gap", times[0]/times[2], 100*(times[0]-times[1])/(times[0]-times[2]))
		t.Fprint(os.Stdout)
		writeMetrics(mf, cfg.Metrics)
		return
	}

	domain, err := cliutil.ParseDomain(*domainFlag)
	if err != nil {
		fatal(err)
	}
	ws := horus.NewWorkloadSystem(cfg, scheme, domain)
	if err := ws.Run(wl); err != nil {
		fatal(err)
	}
	st := ws.Stats()
	fmt.Printf("workload:        %s\n", wl)
	fmt.Printf("domain:          %v, scheme: %v\n", domain, scheme)
	fmt.Printf("simulated time:  %v\n", st.Time)
	fmt.Printf("cache hits:      %v\n", st.HitsPerLevel)
	fmt.Printf("memory misses:   %s, writebacks: %s\n", report.Count(st.MissesToMem), report.Count(st.Writebacks))
	fmt.Printf("persists:        %s (%s flushed, %s free)\n",
		report.Count(st.Persists), report.Count(st.PersistFlush), report.Count(st.PersistElided))

	if !*crash {
		// Without a crash the timeline holds the run phase only (no drain
		// episode brackets it); export covers those events as recorded.
		writeTimeline(tf, cfg.Timeline, cfg.Metrics)
		writeMetrics(mf, cfg.Metrics)
		return
	}
	res, golden, err := ws.CrashAndDrain()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\ncrash: drained %s dirty lines in %v (%s writes, %s MACs)\n",
		report.Count(int64(res.BlocksDrained)), res.DrainTime,
		report.Count(res.MemWrites.Total()), report.Count(res.TotalMACs()))
	writeTimeline(tf, cfg.Timeline, cfg.Metrics)
	rec, err := ws.Recover(res.Persist)
	if err != nil {
		fatal(err)
	}
	ok := 0
	for addr, want := range golden {
		if got, err := ws.Machine.Read(addr); err == nil && got == want {
			ok++
		}
	}
	fmt.Printf("recovered in %v; verified %d/%d pre-crash values\n", rec.Time(), ok, len(golden))
	writeMetrics(mf, cfg.Metrics)
}

// writeTimeline prints the attribution and exports the Chrome trace when
// tracing is enabled. With -crash the recording covers the drain episode;
// without it, the run phase.
func writeTimeline(tf *cliutil.TraceFlags, tl *horus.TimelineRecorder, reg *horus.MetricsRegistry) {
	if !tf.Enabled() {
		return
	}
	rec := tl.Recording()
	if tf.Attrib {
		att := horus.AnalyzeTimeline(rec)
		att.Publish(reg)
		fmt.Println()
		report.AttributionTable(att).Fprint(os.Stdout)
		fmt.Println()
		report.Gantt(rec).Fprint(os.Stdout)
	}
	if tf.Path != "" {
		if err := tf.WriteTrace(rec); err != nil {
			fatal(err)
		}
		fmt.Printf("timeline: %d events to %s (%d dropped)\n", len(rec.Events), tf.Path, rec.Dropped)
	}
}

// writeMetrics prints the span tree and exports the snapshot when enabled.
func writeMetrics(mf *cliutil.MetricsFlags, reg *horus.MetricsRegistry) {
	if !mf.Enabled() {
		return
	}
	fmt.Println()
	report.SpanTree(reg).Fprint(os.Stdout)
	if err := mf.Write(reg); err != nil {
		fatal(err)
	}
	fmt.Printf("metrics: %s snapshot to %s\n", mf.Format, mf.Path)
}

func runOn(cfg horus.Config, scheme horus.Scheme, d horus.PersistDomain, wl *horus.Workload) (horus.RunStats, error) {
	ws := horus.NewWorkloadSystem(cfg, scheme, d)
	if err := ws.Run(wl); err != nil {
		return horus.RunStats{}, err
	}
	return ws.Stats(), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "horus-runtime:", err)
	os.Exit(1)
}

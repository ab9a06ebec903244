// Package perfbench is a statistical benchmark harness for the simulator's
// hot paths. Unlike testing.B it measures whole episodes (a full drain, a
// sweep, a torture matrix) a fixed number of times and reports robust order
// statistics — median, p10, p90 of wall time plus per-episode allocation
// counts — so a committed baseline can catch regressions without the noise
// sensitivity of a single-shot ns/op figure.
//
// Wall-clock on shared CI hardware jitters by 10%+; allocation counts and
// bytes are deterministic. The comparison logic therefore treats time
// medians with wide thresholds (warn/fail ratios) while allocation
// regressions of the same magnitude are flagged from a single run.
package perfbench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"time"
)

// Schema identifies the report file format.
const Schema = "horus-perfbench/v1"

// Benchmark is one registered episode. Fn runs a single complete episode
// (e.g. one full drain); the harness times it and measures its allocations.
type Benchmark struct {
	Name string
	Fn   func() error
}

// Suite is an ordered registry of benchmarks.
type Suite struct {
	benches []Benchmark
}

// Register adds a benchmark. Names must be unique; duplicates panic so a
// bad registration fails loudly at startup rather than silently shadowing.
func (s *Suite) Register(name string, fn func() error) {
	for _, b := range s.benches {
		if b.Name == name {
			panic("perfbench: duplicate benchmark " + name)
		}
	}
	s.benches = append(s.benches, Benchmark{Name: name, Fn: fn})
}

// Names lists the registered benchmark names in registration order.
func (s *Suite) Names() []string {
	out := make([]string, len(s.benches))
	for i, b := range s.benches {
		out[i] = b.Name
	}
	return out
}

// Result holds the statistics of one benchmark over all repetitions.
type Result struct {
	Name string `json:"name"`
	Reps int    `json:"reps"`
	// Wall-time order statistics over the measured repetitions, in
	// nanoseconds per episode.
	MedianNs float64 `json:"median_ns"`
	P10Ns    float64 `json:"p10_ns"`
	P90Ns    float64 `json:"p90_ns"`
	// Median heap allocation count and bytes per episode (deterministic
	// for the simulator's single-threaded episodes, so the median of the
	// repetitions equals every repetition up to background-runtime noise).
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
	// SamplesNs are the raw per-repetition wall times, in repetition
	// order, for offline re-analysis.
	SamplesNs []float64 `json:"samples_ns"`
}

// Report is the serialized output of a suite run.
type Report struct {
	Schema    string   `json:"schema"`
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Reps      int      `json:"reps"`
	Results   []Result `json:"results"`
}

// Options configures a suite run.
type Options struct {
	// Reps is the number of measured repetitions per benchmark
	// (default 7). One additional untimed warmup repetition always runs
	// first so first-touch costs (page faults, lazily built tables) do
	// not land in the first sample.
	Reps int
	// Filter, when non-nil, restricts the run to matching names.
	Filter *regexp.Regexp
	// Log, when non-nil, receives one progress line per benchmark.
	Log io.Writer
	// OnProgress, when non-nil, is called after each benchmark completes
	// with the finished count, the total matching count, and the
	// benchmark's name. It feeds the -progress line and the -serve SSE
	// stream of horus-perfbench.
	OnProgress func(done, total int, name string)
}

// DefaultReps is the repetition count when Options.Reps is zero.
const DefaultReps = 7

// Run executes every (matching) benchmark Reps times and returns the
// aggregated report. Results are sorted by name so the emitted JSON is
// stable across registration-order changes.
func (s *Suite) Run(opts Options) (*Report, error) {
	reps := opts.Reps
	if reps <= 0 {
		reps = DefaultReps
	}
	rep := &Report{
		Schema:    Schema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Reps:      reps,
	}
	var matching []Benchmark
	for _, b := range s.benches {
		if opts.Filter != nil && !opts.Filter.MatchString(b.Name) {
			continue
		}
		matching = append(matching, b)
	}
	for i, b := range matching {
		r, err := measure(b, reps)
		if err != nil {
			return nil, fmt.Errorf("perfbench: %s: %w", b.Name, err)
		}
		rep.Results = append(rep.Results, r)
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "%-40s reps=%d median=%s p10=%s p90=%s allocs/op=%d\n",
				r.Name, r.Reps, fmtNs(r.MedianNs), fmtNs(r.P10Ns), fmtNs(r.P90Ns), r.AllocsPerOp)
		}
		if opts.OnProgress != nil {
			opts.OnProgress(i+1, len(matching), b.Name)
		}
	}
	sort.Slice(rep.Results, func(i, j int) bool { return rep.Results[i].Name < rep.Results[j].Name })
	return rep, nil
}

// measure runs one benchmark: a warmup pass, then reps measured passes.
func measure(b Benchmark, reps int) (Result, error) {
	if err := b.Fn(); err != nil { // warmup
		return Result{}, err
	}
	ns := make([]float64, reps)
	allocs := make([]uint64, reps)
	bytes := make([]uint64, reps)
	var m0, m1 runtime.MemStats
	for i := 0; i < reps; i++ {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		if err := b.Fn(); err != nil {
			return Result{}, err
		}
		ns[i] = float64(time.Since(start).Nanoseconds())
		runtime.ReadMemStats(&m1)
		allocs[i] = m1.Mallocs - m0.Mallocs
		bytes[i] = m1.TotalAlloc - m0.TotalAlloc
	}
	sortedNs := append([]float64(nil), ns...)
	sort.Float64s(sortedNs)
	return Result{
		Name:        b.Name,
		Reps:        reps,
		MedianNs:    quantile(sortedNs, 0.5),
		P10Ns:       quantile(sortedNs, 0.1),
		P90Ns:       quantile(sortedNs, 0.9),
		AllocsPerOp: medianU64(allocs),
		BytesPerOp:  medianU64(bytes),
		SamplesNs:   ns,
	}, nil
}

// quantile linearly interpolates the q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func medianU64(v []uint64) uint64 {
	s := append([]uint64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

func fmtNs(ns float64) string {
	return time.Duration(int64(ns)).Round(10 * time.Microsecond).String()
}

// WriteJSON writes the report to path, indented, with a trailing newline.
func (r *Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadJSON loads a report written by WriteJSON.
func ReadJSON(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perfbench: %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("perfbench: %s: unknown schema %q", path, r.Schema)
	}
	return &r, nil
}

// result lookup by name.
func (r *Report) find(name string) *Result {
	for i := range r.Results {
		if r.Results[i].Name == name {
			return &r.Results[i]
		}
	}
	return nil
}

// Delta statuses, ordered by severity.
const (
	StatusOK      = "ok"      // within the warn threshold
	StatusNew     = "new"     // present now, absent from the baseline
	StatusMissing = "missing" // present in the baseline, absent now
	StatusWarn    = "warn"    // median regressed past the warn threshold
	StatusFail    = "fail"    // median regressed past the fail threshold
)

// Delta compares one benchmark between a baseline and a current report.
type Delta struct {
	Name         string  `json:"name"`
	Status       string  `json:"status"`
	BaseMedianNs float64 `json:"base_median_ns"`
	CurMedianNs  float64 `json:"cur_median_ns"`
	// TimeRatio is current/baseline median wall time (1.0 = unchanged).
	TimeRatio  float64 `json:"time_ratio"`
	BaseAllocs uint64  `json:"base_allocs_per_op"`
	CurAllocs  uint64  `json:"cur_allocs_per_op"`
	BaseBytes  uint64  `json:"base_bytes_per_op"`
	CurBytes   uint64  `json:"cur_bytes_per_op"`
}

// Compare evaluates cur against base: a benchmark regresses when its median
// wall time grows by more than warn (fraction, e.g. 0.10) or fail (e.g.
// 0.30). Allocation growth, in count and in bytes, is held to the same
// ratios; because both are deterministic, growth of either past the warn
// ratio is already scored as a failure. Bytes are gated on their own since
// a few large allocations (an oversized table) can inflate them many times
// over while the count barely moves. Benchmarks present on only one side
// are reported as new/missing and never fail the comparison.
func Compare(base, cur *Report, warn, fail float64) []Delta {
	var out []Delta
	for i := range cur.Results {
		c := &cur.Results[i]
		b := base.find(c.Name)
		d := Delta{Name: c.Name, CurMedianNs: c.MedianNs, CurAllocs: c.AllocsPerOp, CurBytes: c.BytesPerOp}
		if b == nil {
			d.Status = StatusNew
			out = append(out, d)
			continue
		}
		d.BaseMedianNs = b.MedianNs
		d.BaseAllocs = b.AllocsPerOp
		d.BaseBytes = b.BytesPerOp
		if b.MedianNs > 0 {
			d.TimeRatio = c.MedianNs / b.MedianNs
		}
		d.Status = StatusOK
		switch {
		case d.TimeRatio > 1+fail:
			d.Status = StatusFail
		case allocRatio(c.AllocsPerOp, b.AllocsPerOp) > 1+warn,
			allocRatio(c.BytesPerOp, b.BytesPerOp) > 1+warn:
			d.Status = StatusFail // deterministic metrics: no noise excuse
		case d.TimeRatio > 1+warn:
			d.Status = StatusWarn
		}
		out = append(out, d)
	}
	for i := range base.Results {
		if cur.find(base.Results[i].Name) == nil {
			out = append(out, Delta{
				Name: base.Results[i].Name, Status: StatusMissing,
				BaseMedianNs: base.Results[i].MedianNs, BaseAllocs: base.Results[i].AllocsPerOp,
				BaseBytes: base.Results[i].BytesPerOp,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func allocRatio(cur, base uint64) float64 {
	if base == 0 {
		if cur == 0 {
			return 1
		}
		return 2 // from zero to something: treat as a failure-grade jump
	}
	return float64(cur) / float64(base)
}

// AnyFail reports whether any delta has fail status.
func AnyFail(deltas []Delta) bool {
	for _, d := range deltas {
		if d.Status == StatusFail {
			return true
		}
	}
	return false
}

// FormatDeltas renders the comparison as an aligned text table.
func FormatDeltas(w io.Writer, deltas []Delta) {
	fmt.Fprintf(w, "%-40s %-8s %12s %12s %8s %12s %12s %12s %12s\n",
		"benchmark", "status", "base-median", "cur-median", "time-x",
		"base-allocs", "cur-allocs", "base-bytes", "cur-bytes")
	for _, d := range deltas {
		ratio := "-"
		if d.TimeRatio > 0 {
			ratio = fmt.Sprintf("%.3f", d.TimeRatio)
		}
		fmt.Fprintf(w, "%-40s %-8s %12s %12s %8s %12d %12d %12d %12d\n",
			d.Name, d.Status, fmtNs(d.BaseMedianNs), fmtNs(d.CurMedianNs), ratio,
			d.BaseAllocs, d.CurAllocs, d.BaseBytes, d.CurBytes)
	}
}

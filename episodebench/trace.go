package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	horus "repro"
)

// span is one timed step of a traced run, recorded in memory and written
// out when the run ends.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root span
	Name    string `json:"name"`
	Episode int    `json:"episode"`
	StartNs int64  `json:"start_ns"` // since the run's trace origin
	EndNs   int64  `json:"end_ns"`
}

// tracer records the spans of one episode. A nil tracer records nothing,
// so untraced episodes pay one pointer check per phase.
type tracer struct {
	data    *traceData
	episode int
	stack   []int
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.data.spans)
	now := time.Since(t.data.origin).Nanoseconds()
	t.data.spans = append(t.data.spans, span{ID: id, Parent: parent, Name: name, Episode: t.episode, StartNs: now, EndNs: now})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.data.spans[id].EndNs = time.Since(t.data.origin).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs fn with its CPU-profile samples (and those of every goroutine it
// starts) labelled phase=name.
func (t *tracer) do(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	var err error
	pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) { err = fn() })
	return err
}

// run is an unmeasured step recorded as a span.
func (t *tracer) run(name string, fn func() error) error {
	id := t.begin(name)
	err := t.do(name, fn)
	t.end(id)
	return err
}

// traceData is what a traced run accumulates over its traced episodes.
type traceData struct {
	origin   time.Time
	spans    []span
	episodes int // traced episodes

	samples    int64 // profile samples
	unresolved int64 // samples the decoder could not resolve to frames
	periodNs   int64 // CPU time per sample
	// rusageNs is the process CPU time getrusage reports over the traced
	// episodes' profiling windows: the measurement the profile is checked
	// against.
	rusageNs int64
	buckets  map[string]int64 // samples per module bucket
	phases   map[string]int64 // samples per phase label ("" = none)
	// shardWorker counts samples on the shard pipeline's worker goroutines,
	// whatever module their innermost frame is in; it overlaps the buckets.
	shardWorker int64

	sim Reference // simulated output of the last traced episode

	bankUtil, busUtil, engineUtil []float64 // drain-phase gauges
	waitSum                       float64   // bank queueing delay, ps
	waitCount                     int64     // NVM accesses that waited or not
}

func newTraceData() *traceData {
	return &traceData{origin: time.Now(), buckets: map[string]int64{}, phases: map[string]int64{}}
}

func (d *traceData) tracer(episode int) *tracer { return &tracer{data: d, episode: episode} }

// addProfile folds one traced episode's CPU profile into the totals; cpu
// is the process CPU time getrusage measured while the profile ran.
func (d *traceData) addProfile(data []byte, cpu time.Duration) error {
	p, err := parseCPUProfile(data)
	if err != nil {
		return err
	}
	if p.PeriodNs > 0 {
		d.periodNs = p.PeriodNs
	}
	buckets, phases := fold(p)
	for k, v := range buckets {
		d.buckets[k] += v
	}
	for k, v := range phases {
		d.phases[k] += v
	}
	for _, smp := range p.Samples {
		for _, f := range smp.Funcs {
			if strings.HasPrefix(f, "repro/internal/shard.") {
				d.shardWorker += smp.Count
				break
			}
		}
	}
	d.samples += p.Total
	d.unresolved += p.Unresolved
	d.rusageNs += cpu.Nanoseconds()
	return nil
}

// addRegistry reads the simulated machine's utilisation gauges for the
// drain phase and the bank-wait histogram from a traced episode's registry.
func (d *traceData) addRegistry(reg *horus.MetricsRegistry) {
	snap := reg.Snapshot()
	for _, g := range snap.Gauges {
		if g.Labels["phase"] != "drain" {
			continue
		}
		switch g.Name {
		case "horus_mem_bank_utilization":
			d.bankUtil = append(d.bankUtil, g.Value)
		case "horus_mem_bus_utilization":
			d.busUtil = append(d.busUtil, g.Value)
		case "horus_sec_engine_utilization":
			d.engineUtil = append(d.engineUtil, g.Value)
		}
	}
	for _, h := range snap.Histograms {
		if h.Name == "horus_mem_bank_wait_ps" {
			d.waitSum += h.Sum
			d.waitCount += h.Count
		}
	}
}

// spanMs is the median over traced episodes of the total wall time of the
// spans with the given name, in milliseconds (0 when no episode has one).
func (d *traceData) spanMs(name string) float64 {
	per := map[int]float64{}
	for _, s := range d.spans {
		if s.Name == name {
			per[s.Episode] += float64(s.EndNs-s.StartNs) / 1e6
		}
	}
	var xs []float64
	for _, v := range per {
		xs = append(xs, v)
	}
	return median(xs)
}

// cpuMs converts a sample count to profiled CPU time per traced episode.
func (d *traceData) cpuMs(samples int64) float64 {
	if d.episodes == 0 {
		return 0
	}
	return float64(samples*d.periodNs) / 1e6 / float64(d.episodes)
}

// profileCPUTolerance is how far the profiled CPU time of the traced
// episodes may stray from the CPU time getrusage measured over the same
// windows. The profiler samples every 10 ms of each thread's CPU clock, so
// the two agree up to sampling noise, a partial period per thread at each
// window edge, and the profiler's own signal handling.
const profileCPUTolerance = 0.15

// selfCheck asserts the profile was decoded and folded completely and
// agrees with an independent measurement, and that each phase's profiled
// CPU fits inside its wall time on the available workers:
//   - every sample resolved to a stack of named frames;
//   - the printed module buckets together hold every decoded sample;
//   - the samples times the period match the getrusage CPU time of the
//     profiled windows within profileCPUTolerance.
//
// A sample is charged for the whole period it closes, so each span
// instance may overrun its wall time by one period per worker.
func (d *traceData) selfCheck(workers int) []string {
	var fails []string
	if d.unresolved > 0 {
		fails = append(fails, fmt.Sprintf("%d of %d profile samples have no resolvable stack", d.unresolved, d.samples))
	}
	var sum int64
	for _, b := range profileBuckets {
		sum += d.buckets[b]
	}
	if sum != d.samples {
		fails = append(fails, fmt.Sprintf("module buckets hold %d samples, profile has %d", sum, d.samples))
	}
	if prof := d.samples * d.periodNs; math.Abs(float64(prof)/float64(d.rusageNs)-1) > profileCPUTolerance {
		fails = append(fails, fmt.Sprintf("profiled CPU %.1f ms differs from getrusage CPU %.1f ms by more than %.0f%%",
			float64(prof)/1e6, float64(d.rusageNs)/1e6, profileCPUTolerance*100))
	}
	wall := map[string]int64{}
	count := map[string]int64{}
	for _, s := range d.spans {
		wall[s.Name] += s.EndNs - s.StartNs
		count[s.Name]++
	}
	for phase, n := range d.phases {
		if phase == "" {
			continue
		}
		cpu := n * d.periodNs
		limit := (wall[phase] + count[phase]*d.periodNs) * int64(workers)
		if cpu > limit {
			fails = append(fails, fmt.Sprintf("phase %s: profiled CPU %.1f ms exceeds wall %.1f ms x %d workers",
				phase, float64(cpu)/1e6, float64(wall[phase])/1e6, workers))
		}
	}
	return fails
}

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// bucketMetric names a profile bucket's per-layer metric: <module>.cpu_ms,
// or runtime.alloc_ms and runtime.gc_ms for the runtime buckets.
func bucketMetric(bucket string) string {
	if strings.HasPrefix(bucket, "runtime.") {
		return bucket + "_ms"
	}
	return bucket + ".cpu_ms"
}

// perLayerMetrics lists the per-layer metrics in report order; every traced
// run prints all of them (a layer a workload does not load reads 0).
var perLayerMetrics = func() []layerMetric {
	ms := []layerMetric{
		{"horus.new_system_ms", "ms"},
		{"secmem.warmup_ms", "ms"},
		{"hierarchy.fill_ms", "ms"},
		{"core.drain_ms", "ms"},
		{"recovery.recover_ms", "ms"},
		{"faultinject.matrix_ms", "ms"},
	}
	for _, b := range profileBuckets {
		ms = append(ms, layerMetric{bucketMetric(b), "ms"})
	}
	return append(ms,
		layerMetric{"shard.worker_cpu_ms", "ms"},
		layerMetric{"core.host_ns_per_nvm_access", "ns"},
		layerMetric{"mem.writes", "count"},
		layerMetric{"mem.reads", "count"},
		layerMetric{"cme.mac_ops", "count"},
		layerMetric{"cme.aes_ops", "count"},
		layerMetric{"core.blocks_drained", "count"},
		layerMetric{"cme.macs_per_block", "MAC/block"},
		layerMetric{"recovery.reads", "count"},
		layerMetric{"recovery.mac_ops", "count"},
		layerMetric{"faultinject.cells_restored", "count"},
		layerMetric{"faultinject.cells_partial", "count"},
		layerMetric{"faultinject.cells_detected", "count"},
		layerMetric{"faultinject.drain_steps", "count"},
		layerMetric{"mem.bank_utilization_mean", "frac"},
		layerMetric{"mem.bank_wait_ps_mean", "ps"},
		layerMetric{"mem.bus_utilization", "frac"},
		layerMetric{"secmem.engine_utilization", "frac"},
		layerMetric{"trace.profile_samples", "count"},
		layerMetric{"trace.overhead_frac", "frac"},
	)
}()

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// perLayer computes every per-layer metric of a traced run.
func (d *traceData) perLayer(r *result) ([]string, map[string]metric) {
	v := map[string]float64{
		"horus.new_system_ms":   d.spanMs("new_system"),
		"secmem.warmup_ms":      d.spanMs("warmup"),
		"hierarchy.fill_ms":     d.spanMs("fill"),
		"core.drain_ms":         d.spanMs("drain"),
		"recovery.recover_ms":   d.spanMs("recover"),
		"faultinject.matrix_ms": d.spanMs("torture_matrix"),
	}
	for _, b := range profileBuckets {
		v[bucketMetric(b)] = d.cpuMs(d.buckets[b])
	}
	v["shard.worker_cpu_ms"] = d.cpuMs(d.shardWorker)
	sim := d.sim
	accesses := sim.MemReads.total() + sim.MemWrites.total()
	if accesses > 0 {
		v["core.host_ns_per_nvm_access"] = v["core.drain_ms"] * 1e6 / float64(accesses)
	}
	v["mem.writes"] = float64(sim.MemWrites.total())
	v["mem.reads"] = float64(sim.MemReads.total())
	v["cme.mac_ops"] = float64(sim.MACs.total())
	v["cme.aes_ops"] = float64(sim.AESOps)
	v["core.blocks_drained"] = float64(sim.BlocksDrained)
	if sim.BlocksDrained > 0 {
		v["cme.macs_per_block"] = float64(sim.MACs.total()) / float64(sim.BlocksDrained)
	}
	v["recovery.reads"] = float64(sim.RecoveryReads)
	v["recovery.mac_ops"] = float64(sim.RecoveryMACs)
	v["faultinject.cells_restored"] = float64(sim.Cells["restored"])
	v["faultinject.cells_partial"] = float64(sim.Cells["partial"])
	v["faultinject.cells_detected"] = float64(sim.Cells["detected"])
	for _, n := range sim.Steps {
		v["faultinject.drain_steps"] += float64(n)
	}
	v["mem.bank_utilization_mean"] = mean(d.bankUtil)
	if d.waitCount > 0 {
		v["mem.bank_wait_ps_mean"] = d.waitSum / float64(d.waitCount)
	}
	v["mem.bus_utilization"] = mean(d.busUtil)
	v["secmem.engine_utilization"] = mean(d.engineUtil)
	v["trace.profile_samples"] = float64(d.samples)

	var tracedWall, plainWall []float64
	for _, e := range r.episodes {
		if e.traced {
			tracedWall = append(tracedWall, e.wall.Seconds())
		} else {
			plainWall = append(plainWall, e.wall.Seconds())
		}
	}
	if base := median(plainWall); base > 0 {
		v["trace.overhead_frac"] = median(tracedWall)/base - 1
	}

	names := make([]string, len(perLayerMetrics))
	m := make(map[string]metric, len(perLayerMetrics))
	for i, lm := range perLayerMetrics {
		names[i] = lm.name
		m[lm.name] = metric{v[lm.name], lm.unit}
	}
	return names, m
}

// writeTrace writes the run's spans, profile buckets and host fingerprint
// as one JSON document and returns its path.
func (r *result) writeTrace(dir string) (string, error) {
	d := r.trace
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	doc := map[string]any{
		"workload":          r.workload.name,
		"seed":              r.seed,
		"host":              r.host,
		"spans":             d.spans,
		"profile_samples":   d.samples,
		"profile_rusage_ns": d.rusageNs,
		"profile_period_ns": d.periodNs,
		"profile_buckets":   d.buckets,
		"phase_samples":     d.phases,
		"traced_episodes":   d.episodes,
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", r.workload.name, r.seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	return path, nil
}

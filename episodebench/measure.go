package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	horus "repro"
)

// meter accumulates the wall time, CPU time and heap allocation of the
// measured phases of one episode.
type meter struct {
	wall, cpu time.Duration
	alloc     uint64

	t0 time.Time
	c0 time.Duration
	a0 uint64
}

func (m *meter) start() {
	m.a0 = allocBytes()
	m.c0 = cpuTime()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	m.wall += time.Since(m.t0)
	m.cpu += cpuTime() - m.c0
	m.alloc += allocBytes() - m.a0
}

// cpuTime is the process's user plus system CPU time, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// episodeCtx is what a workload's episode runs under: the meter, and in a
// traced episode the span recorder and a metrics registry for the
// simulated machine.
type episodeCtx struct {
	m   meter
	tr  *tracer
	reg *horus.MetricsRegistry
}

// phase runs one measured step of the episode. Its wall time, CPU time and
// allocation count toward the episode; in a traced episode it is a span and
// labels its CPU-profile samples with the phase name.
func (ep *episodeCtx) phase(name string, fn func() error) error {
	id := ep.tr.begin(name)
	ep.m.start()
	err := ep.tr.do(name, fn)
	ep.m.stop()
	ep.tr.end(id)
	return err
}

// verifyFunc checks an episode's simulated output after its measured phases
// and returns the record the references pin.
type verifyFunc func() (Reference, error)

// episodeFunc runs one episode of a workload.
type episodeFunc func(ep *episodeCtx) (verifyFunc, error)

// episodeStat is the measurement of one episode.
type episodeStat struct {
	wall, cpu time.Duration
	alloc     uint64
	rss       int64 // peak resident bytes while the episode ran
	traced    bool
}

// result is everything one run measured.
type result struct {
	workload workload
	seed     int64
	host     fingerprint

	setup    []float64 // seconds per set-up repetition
	episodes []episodeStat
	sim      *Reference // the first verified episode's simulated output
	failed   int
	checks   []string // trace self-check failures

	trace *traceData // nil in an untraced run
}

// measure performs one run: set-up and an episode, repeated until the
// budget is spent, each episode verified after its measured phases. The
// report lines go to out as they are produced.
func measure(w workload, o options, out io.Writer) (*result, error) {
	res := &result{workload: w, seed: o.seed, host: hostFingerprint(w)}
	fmt.Fprintf(out, "episodebench workload=%s seed=%d seconds=%d trace=%t\n", w.name, o.seed, o.seconds, o.trace)
	fmt.Fprintln(out, res.host)

	// The set-up is repeated before every episode rather than in one burst
	// at the start, so its median samples the host over the whole run as
	// the episodes do; a millisecond set-up timed only in the first second
	// would read whatever the host was doing in that second.
	var episode episodeFunc
	setUp := func() error {
		runtime.GC()
		t0 := time.Now()
		f, err := w.prepare(o.seed)
		if err != nil {
			return fmt.Errorf("set-up of %s: %w", w.name, err)
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
		episode = f
		return nil
	}
	ref, hasRef := lookupReference(w.name, o.seed)
	if !hasRef {
		fmt.Fprintf(out, "reference: none for seed %d (self-checks only; references exist for seeds %v)\n", o.seed, referenceSeeds(w.name))
	}
	if o.trace {
		res.trace = newTraceData()
	}

	// A traced run alternates untraced and traced episodes, so the tracing
	// overhead is measured against the same process; it needs one of each.
	minEpisodes := 1
	if o.trace {
		minEpisodes = 2
	}
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		traced := o.trace && i%2 == 1
		if i >= minEpisodes && time.Since(start)+last > budget {
			break
		}
		iterStart := time.Now()
		if err := setUp(); err != nil {
			return nil, err
		}
		runtime.GC()
		st, sim, err := runEpisode(res, episode, i, traced)
		var diffs []string
		if err == nil {
			if hasRef {
				diffs = diffReference(ref, sim)
			}
			if res.sim == nil {
				res.sim = &sim
			} else if len(diffs) == 0 {
				diffs = diffReference(*res.sim, sim) // episodes of one run repeat exactly
			}
		}
		if err != nil || len(diffs) > 0 {
			res.failed++
			fmt.Fprintf(out, "episode %d FAILED verification", i)
			if err != nil {
				fmt.Fprintf(out, ": %v", err)
			}
			fmt.Fprintln(out)
			for _, d := range diffs {
				fmt.Fprintf(out, "  %s\n", d)
			}
		}
		res.episodes = append(res.episodes, st)
		last = time.Since(iterStart)
	}
	if res.trace != nil {
		res.checks = res.trace.selfCheck(runtime.GOMAXPROCS(0))
	}
	res.report(out)
	return res, nil
}

// runEpisode runs and verifies one episode.
func runEpisode(res *result, episode episodeFunc, index int, traced bool) (episodeStat, Reference, error) {
	ep := &episodeCtx{}
	var prof bytes.Buffer
	if traced {
		ep.tr = res.trace.tracer(index)
		ep.reg = horus.NewMetricsRegistry()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return episodeStat{traced: true}, Reference{}, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	profCPU := cpuTime()
	err := resetPeakRSS()
	var verify verifyFunc
	if err == nil {
		root := ep.tr.begin("episode")
		verify, err = episode(ep)
		ep.tr.end(root)
	}
	st := episodeStat{wall: ep.m.wall, cpu: ep.m.cpu, alloc: ep.m.alloc, traced: traced}
	if err == nil {
		st.rss, err = peakRSS()
	}
	if traced {
		profCPU = cpuTime() - profCPU
		pprof.StopCPUProfile()
		if perr := res.trace.addProfile(prof.Bytes(), profCPU); perr != nil && err == nil {
			err = perr
		}
		res.trace.addRegistry(ep.reg)
		res.trace.episodes++
	}
	if err != nil {
		return st, Reference{}, err
	}
	var sim Reference
	err = ep.tr.run("verify", func() (err error) {
		sim, err = verify()
		return err
	})
	if traced && err == nil {
		res.trace.sim = sim
	}
	return st, sim, err
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// untraced returns the given per-episode values of the untraced episodes.
func (r *result) untraced(f func(episodeStat) float64) []float64 {
	var out []float64
	for _, e := range r.episodes {
		if !e.traced {
			out = append(out, f(e))
		}
	}
	return out
}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reportOnly are end-to-end metrics the report prints but the JSON line
// leaves out. error_frac is zero on a healthy run, so it has no median to
// bound; the line carries it as failed/attempted. The simulated times are
// exact outputs, pinned bit-for-bit by the references and the per-run
// repeat check rather than bounded, and some read the same at every seed
// (paper-base-lu's vault restore, crash-matrix's fault-free drains).
var reportOnly = []string{"error_frac", "sim_drain_us", "sim_recover_us"}

// endToEnd returns the end-to-end metrics in report order.
func (r *result) endToEnd() ([]string, map[string]metric) {
	wall := r.untraced(func(e episodeStat) float64 { return e.wall.Seconds() })
	cpu := r.untraced(func(e episodeStat) float64 { return e.cpu.Seconds() })
	alloc := r.untraced(func(e episodeStat) float64 { return float64(e.alloc) / (1 << 20) })
	rss := r.untraced(func(e episodeStat) float64 { return float64(e.rss) / (1 << 20) })
	var sim Reference
	if r.sim != nil {
		sim = *r.sim
	}
	m := map[string]metric{
		"setup_s":        {median(r.setup), "s"},
		"episode_s":      {median(wall), "s"},
		"episode_cpu_s":  {median(cpu), "s"},
		"alloc_mb":       {median(alloc), "MiB"},
		"peak_rss_mb":    {median(rss), "MiB"},
		"error_frac":     {float64(r.failed) / float64(len(r.episodes)), "frac"},
		"sim_drain_us":   {float64(sim.DrainPs) / 1e6, "us"},
		"sim_recover_us": {float64(sim.RecoverPs) / 1e6, "us"},
	}
	names := []string{"setup_s", "episode_s", "episode_cpu_s", "alloc_mb", "peak_rss_mb", "error_frac", "sim_drain_us", "sim_recover_us"}
	return names, m
}

func (r *result) report(out io.Writer) {
	names, m := r.endToEnd()
	wall := r.untraced(func(e episodeStat) float64 { return e.wall.Seconds() })
	sort.Float64s(wall)
	fmt.Fprintf(out, "end-to-end (untraced episodes: %d of %d; host seconds except sim_*):\n", len(wall), len(r.episodes))
	for _, n := range names {
		note := ""
		switch n {
		case "setup_s":
			note = fmt.Sprintf("median of %d set-ups", len(r.setup))
		case "episode_s":
			if len(wall) > 0 {
				note = fmt.Sprintf("median of %d episodes, min %.4f max %.4f; verification excluded", len(wall), wall[0], wall[len(wall)-1])
			}
		case "peak_rss_mb":
			note = "median episode's peak (VmHWM, reset before each episode)"
		case "error_frac":
			note = fmt.Sprintf("%d of %d episodes failed verification", r.failed, len(r.episodes))
		case "sim_drain_us", "sim_recover_us":
			note = "simulated"
		}
		fmt.Fprintf(out, "  %-16s %14.6f %-5s %s\n", n, m[n].Value, m[n].Unit, note)
	}
	if r.sim != nil {
		if acc := r.workload.accuracy; acc != nil {
			acc(out, r.seed, *r.sim)
		}
		if obs, err := r.sim.JSON(); err == nil {
			fmt.Fprintf(out, "reference-observed %s %d %s\n", r.workload.name, r.seed, obs)
		}
	}
	if r.trace != nil {
		names, lm := r.trace.perLayer(r)
		fmt.Fprintf(out, "per-layer (traced episodes: %d):\n", r.trace.episodes)
		for _, n := range names {
			fmt.Fprintf(out, "  %-34s %16.6f %s\n", n, lm[n].Value, lm[n].Unit)
		}
		d := r.trace
		prof := float64(d.samples * d.periodNs)
		fmt.Fprintf(out, "profile: %d samples x %.0f ms = %.1f ms CPU; getrusage over the same windows %.1f ms (%+.1f%%)\n",
			d.samples, float64(d.periodNs)/1e6, prof/1e6, float64(d.rusageNs)/1e6, (prof/float64(d.rusageNs)-1)*100)
		for _, c := range r.checks {
			fmt.Fprintf(out, "trace self-check FAILED: %s\n", c)
		}
	}
}

// jsonResult is the final result line.
func (r *result) jsonResult() map[string]any {
	var m map[string]metric
	if r.trace != nil {
		_, m = r.trace.perLayer(r)
	} else {
		_, m = r.endToEnd()
		for _, n := range reportOnly {
			delete(m, n)
		}
	}
	return map[string]any{
		"correct":   r.failed == 0 && len(r.checks) == 0,
		"attempted": len(r.episodes),
		"failed":    r.failed,
		"metrics":   m,
	}
}

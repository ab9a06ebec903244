package horus

import (
	"context"
	"time"

	"repro/internal/obs/timeseries"
	"repro/internal/sweep"
)

// SweepOptions configures how experiment grids execute. The zero value is
// the library's historical behavior apart from scheduling: episodes may run
// on all cores. Results are independent of Parallel by construction — every
// episode builds its own System and the engine merges metrics in episode
// order — so -parallel N output is byte-identical to sequential output.
type SweepOptions struct {
	// Parallel bounds the episode worker pool; <= 0 means GOMAXPROCS.
	Parallel int
	// Timeout bounds the whole grid; 0 means no timeout. Episodes not
	// finished when it expires report context.DeadlineExceeded.
	Timeout time.Duration
	// Progress, when non-nil, is called once per finished episode
	// (serialized, completion order) with done/total counts and wall-clock
	// pacing. It feeds the -progress stderr line and the -serve SSE
	// stream; it is wall-clock-side only and cannot perturb simulated
	// results.
	Progress func(SweepProgress)
}

// DrainPoint is one (config, scheme) episode of an experiment grid.
//
// Episodes use Config.Seed for fill/flush randomness — drain sets rely on an
// identical fill across schemes — while the engine's derived per-episode
// seed remains available to custom episodes via EpisodeEnv.Seed.
type DrainPoint struct {
	// Label names the point in errors and progress reports; empty defaults
	// to the scheme name.
	Label  string
	Config Config
	Scheme Scheme
	// Recover additionally crashes the machine after the drain and runs
	// verified recovery (Fig. 16 and the recovery round trips).
	Recover bool
}

// PointResult is one grid episode's outcome. Err is per-episode: a failing
// point never discards its siblings' results.
type PointResult struct {
	Point    DrainPoint
	Result   Result
	Recovery *RecoveryReport // non-nil when Point.Recover and recovery ran
	// Timeline is the episode's drain recording, non-nil when the point's
	// Config.Timeline requested tracing.
	Timeline *TimelineRecording
	Err      error
}

// pointValue is the episode payload threaded through the engine.
type pointValue struct {
	res Result
	rec *RecoveryReport
	tl  *TimelineRecording
	ts  *TimeseriesSampler // per-episode sampler (merged into the sink in order)
}

// RunDrainGrid executes the points through the episode engine: a bounded
// worker pool (SweepOptions.Parallel), context cancellation, per-episode
// panic capture, and deterministic metrics aggregation.
//
// Metrics: episodes never share a registry. Each point's Config.Metrics is
// replaced with a fresh per-episode registry, and the original registry —
// the first non-nil one among the points, normally the one registry every
// point inherited from the base Config — receives all of them via ordered
// post-hoc merge.
//
// Errors are collected per episode: the returned slice always has one entry
// per point (completed points carry their Result even when others failed),
// and the returned error, when non-nil, is a *SweepError aggregating every
// failed point.
func RunDrainGrid(ctx context.Context, points []DrainPoint, opts SweepOptions) ([]PointResult, error) {
	var sink *MetricsRegistry
	var tsSink *TimeseriesSampler
	var baseSeed int64
	for i := range points {
		if sink == nil {
			sink = points[i].Config.Metrics
		}
		if tsSink == nil {
			tsSink = points[i].Config.Timeseries
		}
	}
	if len(points) > 0 {
		baseSeed = points[0].Config.Seed
	}

	eps := make([]sweep.Episode, len(points))
	for i := range points {
		pt := points[i] // capture per iteration: episodes run concurrently
		label := pt.Label
		if label == "" {
			label = pt.Scheme.String()
		}
		eps[i] = sweep.Episode{Label: label, Run: func(ctx context.Context, env sweep.Env) (any, error) {
			return runPointEpisode(ctx, pt, env)
		}}
	}

	runner := sweep.New(sweep.Options{
		Parallel: opts.Parallel,
		Timeout:  opts.Timeout,
		BaseSeed: baseSeed,
		Metrics:  sink,
		Progress: opts.Progress,
	})
	results, err := runner.Run(ctx, eps)

	out := make([]PointResult, len(points))
	for i, r := range results {
		out[i] = PointResult{Point: points[i], Err: r.Err}
		if v, ok := r.Value.(pointValue); ok {
			out[i].Result = v.res
			out[i].Recovery = v.rec
			out[i].Timeline = v.tl
			// Deterministic post-hoc aggregation, exactly like metrics:
			// per-episode samplers merge into the base sampler in episode
			// order regardless of completion order.
			tsSink.Merge(v.ts)
		}
	}
	return out, err
}

// runPointEpisode is the canonical build → warmup → fill → drain
// [→ crash → recover] episode body. The context is checked between phases:
// the simulator itself is synchronous, so cancellation takes effect at
// phase boundaries.
func runPointEpisode(ctx context.Context, pt DrainPoint, env sweep.Env) (pointValue, error) {
	cfg := pt.Config
	cfg.Metrics = env.Metrics
	// Like the metrics registry, a timeline recorder is never shared across
	// concurrent episodes: a traced base config gets a fresh per-episode
	// recorder with the same limit.
	if pt.Config.Timeline != nil {
		cfg.Timeline = NewTimelineRecorder(pt.Config.Timeline.Limit())
	}
	// Same for the time-series sampler: a fresh per-episode sampler with
	// the base sampler's resolution, tagged with the grid point so merged
	// series never collide across episodes.
	if pt.Config.Timeseries != nil {
		base := pt.Config.Timeseries
		label := pt.Label
		if label == "" {
			label = pt.Scheme.String()
		}
		cfg.Timeseries = timeseries.New(base.WindowPs(), base.Capacity(), "point", label)
	}
	// And the flight recorder: episodes bracket their own evlog episodes, so
	// a shared log would interleave records across workers.
	if pt.Config.Evlog != nil {
		cfg.Evlog = NewEvlog(pt.Config.Evlog.Limit())
	}

	sys := NewSystem(cfg, pt.Scheme)
	if err := sys.Warmup(); err != nil {
		return pointValue{}, err
	}
	if err := ctx.Err(); err != nil {
		return pointValue{}, err
	}
	sys.Fill()
	res, err := sys.Drain()
	if err != nil {
		return pointValue{}, err
	}
	val := pointValue{res: res, ts: cfg.Timeseries}
	if cfg.Timeline != nil {
		val.tl = cfg.Timeline.Recording()
		AnalyzeTimeline(val.tl).Publish(cfg.Metrics, "scheme", pt.Scheme.String())
	}
	if !pt.Recover {
		return val, nil
	}
	if err := ctx.Err(); err != nil {
		return val, err
	}
	sys.Crash()
	rec, err := sys.Recover(res.Persist)
	if err != nil {
		return val, err
	}
	val.rec = &rec
	return val, nil
}

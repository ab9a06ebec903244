// Observability overhead guards: the nil fast path of each instrumentation
// hook must stay within noise of an uninstrumented drain. These are the
// package's only go-test benchmarks besides BenchmarkSweepParallel; the
// paper's numbers come from horus-experiments (figures, tables and
// -exp ablations), drain timings from horus-perfbench and episodebench.
//
//	go test -run='^$' -bench=DisabledOverhead -benchtime=5x
package horus

import "testing"

// BenchmarkObsDisabledOverhead: the nil-registry fast path must stay within
// noise of the pre-instrumentation hot loop (<5% on the Fig. 11 drain
// path). "disabled" runs with cfg.Metrics == nil (every handle is a nil
// no-op); "enabled" attaches a live registry so the cost of real recording
// is visible next to it.
func benchmarkObsOverhead(b *testing.B, reg *MetricsRegistry) {
	cfg := TestConfig()
	cfg.Metrics = reg
	for i := 0; i < b.N; i++ {
		if _, err := RunDrain(cfg, HorusSLM); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObsDisabledOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) { benchmarkObsOverhead(b, nil) })
	b.Run("enabled", func(b *testing.B) { benchmarkObsOverhead(b, NewMetricsRegistry()) })
}

// BenchmarkTimelineDisabledOverhead is the same contract for the timeline
// recorder: with cfg.Timeline == nil the tracer hook in sim.Resource.Reserve
// is a single pointer check, so the "disabled" sub must match an untraced
// run. "enabled" shows the cost of recording every reservation.
func benchmarkTimelineOverhead(b *testing.B, traced bool) {
	b.ReportAllocs()
	cfg := TestConfig()
	for i := 0; i < b.N; i++ {
		if traced {
			cfg.Timeline = NewTimelineRecorder(0)
		}
		if _, err := RunDrain(cfg, HorusSLM); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTimelineDisabledOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) { benchmarkTimelineOverhead(b, false) })
	b.Run("enabled", func(b *testing.B) { benchmarkTimelineOverhead(b, true) })
}

// BenchmarkTimeseriesDisabledOverhead is the same contract for the
// time-series sampler: with cfg.Timeseries == nil every per-event hook
// (per-block drain samples, per-access bank-depth samples) is a single
// pointer check with zero allocations, so the "disabled" sub must match an
// unsampled run. "enabled" shows the cost of live windowed recording.
func benchmarkTimeseriesOverhead(b *testing.B, sampled bool) {
	b.ReportAllocs()
	cfg := TestConfig()
	for i := 0; i < b.N; i++ {
		if sampled {
			cfg.Timeseries = NewTimeseriesSampler(0, 0)
		}
		if _, err := RunDrain(cfg, HorusSLM); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTimeseriesDisabledOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) { benchmarkTimeseriesOverhead(b, false) })
	b.Run("enabled", func(b *testing.B) { benchmarkTimeseriesOverhead(b, true) })
}

package horus

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/perfbench"
)

// perfbenchSink defeats dead-code elimination in the crypto microbenchmark.
var perfbenchSink byte

// RegisterPerfBenchmarks fills s with the repository's standard hot-path
// episodes: a full drain per scheme, a parallel sweep smoke, a torture-matrix
// smoke, and microbenchmarks of the secure-write and crypto substrates. All
// run at TestConfig scale so the whole suite finishes in seconds; the
// committed BENCH_horus.json baseline and the CI regression check both use
// exactly this set (cmd/horus-perfbench).
func RegisterPerfBenchmarks(s *perfbench.Suite) {
	for _, scheme := range AllSchemes() {
		scheme := scheme
		name := "drain/" + strings.ToLower(scheme.String())
		s.Register(name, func() error {
			_, err := RunDrain(TestConfig(), scheme)
			return err
		})
	}

	// Sweep smoke: the Fig. 6 set through the episode engine with two
	// workers, exercising the parallel scheduling path end to end.
	s.Register("sweep/fig6-smoke", func() error {
		_, err := RunDrainSetCtx(context.Background(), TestConfig(), Fig6Schemes(), SweepOptions{Parallel: 2})
		return err
	})

	// Torture smoke: a thinned crash matrix (every 5th step, at most 8
	// points per scheme) over all schemes and flavors, the shape the CI
	// torture job runs. Verdicts must stay all-ok; a perf harness that
	// quietly runs a failing matrix would time a broken episode.
	s.Register("torture/smoke", func() error {
		rep, err := RunTortureMatrix(context.Background(),
			TortureConfig{Config: TestConfig(), Stride: 5, MaxPoints: 8},
			SweepOptions{Parallel: 2})
		if err != nil {
			return err
		}
		if !rep.Ok() {
			return fmt.Errorf("torture smoke has %d failing cells", len(rep.Failures()))
		}
		return nil
	})

	// Secure-write microbenchmark: 4096 strided writes through the secure
	// controller (counter fetch, MAC, tree update per write).
	s.Register("micro/secure-write-4k", func() error {
		cfg := TestConfig()
		sys := NewSystem(cfg, BaseLU)
		for i := 0; i < 4096; i++ {
			addr := (uint64(i) * 4096) % cfg.DataSize
			if _, err := sys.Core.Sec.WriteBlock(0, addr, [64]byte{0: byte(i)}); err != nil {
				return err
			}
		}
		return nil
	})

	// Crypto microbenchmark: 8192 encrypt+MAC pairs on the cme engine, the
	// innermost per-block work of every secure scheme.
	s.Register("micro/cme-encrypt-mac-8k", func() error {
		sys := NewSystem(TestConfig(), HorusSLM)
		eng := sys.Core.Enc
		for i := 0; i < 8192; i++ {
			addr := uint64(i) * 64
			ct := eng.Encrypt(addr, uint64(i), [64]byte{0: byte(i)})
			mac := eng.DataMAC(addr, uint64(i), ct)
			perfbenchSink ^= mac[0]
		}
		return nil
	})
}

package horus

import (
	"context"
	"fmt"

	"repro/internal/hierarchy"
	"repro/internal/report"
	"repro/internal/sweep"
)

// Ablations is the suite of design-space studies DESIGN.md §5 calls out,
// one rendered table per study in a fixed order. They complement the
// paper's figures with the simulator's own sensitivity analyses.
type Ablations []*report.Table

// ablationStudies are the studies RunAblationsCtx runs, in table order.
var ablationStudies = []func(context.Context, Config, SweepOptions) (*report.Table, error){
	pairStudy{
		title:  "Ablation: pre-crash content pattern (accesses per drained block)",
		header: []string{"pattern", "Base-LU", "Horus-SLM"},
		cases: []ablationCase{
			{"dense (best case)", func(c *Config) { c.FillPattern = hierarchy.PatternDense }},
			{"paper spacing, in order", func(c *Config) {}},
			{"random sparse, shuffled", func(c *Config) {
				c.FillPattern = hierarchy.PatternWorstCaseSparse
				c.FlushShuffle = true
			}},
		},
		cell: perBlockCells,
		note: staticNote("Horus is oblivious to the pattern; the baseline swings by an order of magnitude"),
	}.run,
	ablateDataSize,
	treeProfile.run,
	recoveryModel.run,
	pairStudy{
		title:  "Ablation: integrity-tree cache size (accesses per drained block)",
		header: []string{"tree cache", "Base-LU", "Horus-SLM"},
		cases:  sweepCases("%dKB", []int{64, 256, 1024}, func(c *Config, kb int) { c.Sec.TreeCacheBytes = kb << 10 }),
		cell:   perBlockCells,
		note:   staticNote("the baseline's drain depends on the tree cache; Horus touches no run-time metadata while draining"),
	}.run,
	pairStudy{
		title:   "Ablation: NVM bank count (drain time)",
		header:  []string{"banks", "non-secure", "Horus-SLM"},
		schemes: []Scheme{NonSecure, HorusSLM},
		cases:   sweepCases("%d", []int{4, 16, 64}, func(c *Config, banks int) { c.Mem.Banks = banks }),
		cell:    drainTimeCells,
		note:    staticNote("draining is bandwidth-bound: the hold-up budget scales with memory parallelism for every scheme"),
	}.run,
	pairStudy{
		title:  "Ablation: NVM write latency (drain time)",
		header: []string{"write latency", "Base-LU", "Horus-SLM", "reduction"},
		cases:  sweepCases("%dns", []int{200, 500, 1000}, func(c *Config, ns int) { c.Mem.WriteLatency = Time(ns) * 1000 }),
		cell: func(rs []Result) []string {
			return append(drainTimeCells(rs), report.Ratio(float64(rs[0].DrainTime)/float64(rs[1].DrainTime)))
		},
		note: staticNote("the Horus reduction is largest on fast NVM, where the baseline is read- and MAC-bound"),
	}.run,
	pairStudy{
		title:   "Ablation: metadata-cache victim policy (Base-LU drain)",
		header:  []string{"victim policy", "reads", "writes", "drain time"},
		schemes: []Scheme{BaseLU},
		cases: []ablationCase{
			{"LRU", func(c *Config) { c.Sec.PreferCleanVictims = false }},
			{"prefer clean", func(c *Config) { c.Sec.PreferCleanVictims = true }},
		},
		cell: trafficCells,
		note: func(rs [][]Result) string {
			lru, clean := rs[0][0], rs[1][0]
			return fmt.Sprintf("prefer clean / LRU: %s reads, %s drain time",
				report.Ratio(float64(clean.MemReads.Total())/float64(lru.MemReads.Total())),
				report.Ratio(float64(clean.DrainTime)/float64(lru.DrainTime)))
		},
	}.run,
	pairStudy{
		title:   "Ablation: recovery-aware baseline drain (Base-LU, §IV-B)",
		header:  []string{"drain", "reads", "writes", "drain time"},
		schemes: []Scheme{BaseLU},
		cases: []ablationCase{
			{"recovery-oblivious", func(c *Config) {}},
			{"recovery-aware (Osiris stop-loss 4)", func(c *Config) { c.Sec.OsirisStopLoss = 4 }},
		},
		cell: trafficCells,
		note: func(rs [][]Result) string {
			return "recovery-aware / oblivious writes: " +
				report.Ratio(float64(rs[1][0].MemWrites.Total())/float64(rs[0][0].MemWrites.Total()))
		},
	}.run,
	recoveryMechanisms.run,
	chvRotation.run,
}

// RunAblations executes the ablation suite at the given configuration
// scale.
func RunAblations(cfg Config) (Ablations, error) {
	return RunAblationsCtx(context.Background(), cfg, SweepOptions{})
}

// RunAblationsCtx executes the ablation suite through the episode engine:
// each study is a declarative point grid (or custom episode set) sharing
// ctx and the worker-pool options.
func RunAblationsCtx(ctx context.Context, cfg Config, opts SweepOptions) (Ablations, error) {
	var a Ablations
	for _, study := range ablationStudies {
		t, err := study(ctx, cfg, opts)
		if err != nil {
			return a, err
		}
		a = append(a, t)
	}
	return a, nil
}

// ablationCase is one row of a config-sweep study: a name and the change
// it makes to the base config.
type ablationCase struct {
	name string
	mut  func(*Config)
}

// sweepCases names one case per value and sets it with set.
func sweepCases[T any](format string, vals []T, set func(*Config, T)) []ablationCase {
	cases := make([]ablationCase, len(vals))
	for i, v := range vals {
		cases[i] = ablationCase{fmt.Sprintf(format, v), func(c *Config) { set(c, v) }}
	}
	return cases
}

// pairStudy is a config-sweep study: a (case × scheme) grid on the episode
// engine rendered as one row per case, the case name followed by cell's
// rendering of that case's results in scheme order (Base-LU and Horus-SLM
// when schemes is nil), and a note over the results by case.
type pairStudy struct {
	title   string
	header  []string
	schemes []Scheme
	cases   []ablationCase
	cell    func([]Result) []string
	note    func([][]Result) string
}

func (p pairStudy) run(ctx context.Context, cfg Config, opts SweepOptions) (*report.Table, error) {
	schemes := p.schemes
	if schemes == nil {
		schemes = []Scheme{BaseLU, HorusSLM}
	}
	var points []DrainPoint
	for _, cse := range p.cases {
		c := cfg
		cse.mut(&c)
		for _, s := range schemes {
			points = append(points, DrainPoint{Label: fmt.Sprintf("%s/%v", cse.name, s), Config: c, Scheme: s})
		}
	}
	prs, err := RunDrainGrid(ctx, points, opts)
	if err != nil {
		return nil, err
	}
	t := &report.Table{Title: p.title, Header: p.header}
	byCase := make([][]Result, len(p.cases))
	for i, cse := range p.cases {
		for j := range schemes {
			byCase[i] = append(byCase[i], prs[i*len(schemes)+j].Result)
		}
		t.AddRow(append([]string{cse.name}, p.cell(byCase[i])...)...)
	}
	t.AddNote("%s", p.note(byCase))
	return t, nil
}

func staticNote(s string) func([][]Result) string { return func([][]Result) string { return s } }

// perBlockCells renders each result's memory accesses per drained block.
func perBlockCells(rs []Result) []string {
	var cells []string
	for _, r := range rs {
		cells = append(cells, fmt.Sprintf("%.2f", float64(r.TotalMemAccesses())/float64(r.BlocksDrained)))
	}
	return cells
}

// drainTimeCells renders each result's drain time.
func drainTimeCells(rs []Result) []string {
	var cells []string
	for _, r := range rs {
		cells = append(cells, r.DrainTime.String())
	}
	return cells
}

// trafficCells renders a single-scheme case's reads, writes and drain time.
func trafficCells(rs []Result) []string {
	return []string{report.Count(rs[0].MemReads.Total()), report.Count(rs[0].MemWrites.Total()), rs[0].DrainTime.String()}
}

// ablateDataSize sweeps the protected capacity over a quarter, one and four
// times the configured size (8/32/128 GB at Table I scale).
func ablateDataSize(ctx context.Context, cfg Config, opts SweepOptions) (*report.Table, error) {
	gb := float64(cfg.DataSize) / (1 << 30)
	cases := sweepCases("%gGB", []float64{gb / 4, gb, gb * 4}, func(c *Config, gb float64) { c.DataSize = uint64(gb * (1 << 30)) })
	return pairStudy{
		title:  "Ablation: protected-memory capacity (accesses per drained block, drain time)",
		header: []string{"capacity", "Base-LU", "Horus-SLM", "Base-LU drain", "Horus-SLM drain"},
		cases:  cases,
		cell:   func(rs []Result) []string { return append(perBlockCells(rs), drainTimeCells(rs)...) },
		note:   staticNote("the paper's design goal: Horus decouples the hold-up budget from memory capacity (§I)"),
	}.run(ctx, cfg, opts)
}

// episodeStudy is a study whose episodes need more than a drain Result.
// Episode i runs on the sweep pool with cfg carrying its own metrics
// registry and none of the recorders, which concurrent episodes must not
// share (RunDrainGrid gives each point fresh ones), and returns a table
// fragment: rows and notes appended to the study's table in episode order,
// before the study's own note.
type episodeStudy struct {
	title   string
	header  []string
	labels  []string
	episode func(i int, c Config) (*report.Table, error)
	note    string
}

func (e episodeStudy) run(ctx context.Context, cfg Config, opts SweepOptions) (*report.Table, error) {
	eps := make([]Episode, len(e.labels))
	for i, label := range e.labels {
		eps[i] = Episode{Label: label, Run: func(ctx context.Context, env EpisodeEnv) (any, error) {
			c := cfg
			c.Metrics = env.Metrics
			c.Timeline, c.Timeseries, c.Evlog = nil, nil, nil
			return e.episode(i, c)
		}}
	}
	results, err := sweep.New(sweep.Options{
		Parallel: opts.Parallel, Timeout: opts.Timeout, BaseSeed: cfg.Seed, Metrics: cfg.Metrics, Progress: opts.Progress,
	}).Run(ctx, eps)
	if err != nil {
		return nil, err
	}
	t := &report.Table{Title: e.title, Header: e.header}
	for _, r := range results {
		f := r.Value.(*report.Table)
		t.Rows = append(t.Rows, f.Rows...)
		t.Notes = append(t.Notes, f.Notes...)
	}
	if e.note != "" {
		t.AddNote("%s", e.note)
	}
	return t, nil
}

// treeProfile reports the secure controller's per-level fetch profile
// after a Base-LU drain.
var treeProfile = episodeStudy{
	title:  "Ablation: Base-LU verification-walk fetch profile (why Fig. 6 blows up)",
	header: []string{"metadata level", "NVM fetches"},
	labels: []string{"tree-profile/Base-LU"},
	episode: func(_ int, c Config) (*report.Table, error) {
		sys, _, err := drainedSystem(c, BaseLU)
		if err != nil {
			return nil, err
		}
		f, lf := &report.Table{}, sys.Core.Sec.LevelFetches()
		for _, name := range lf.SortedNames() {
			f.AddRow(name, report.Count(lf.Get(name)))
		}
		return f, nil
	},
	note: "L0 = counter blocks; sparse flushes miss the low tree levels on almost every access",
}

// recoveryModel replays one drained Horus-SLM machine's CHV serially and
// bank-parallel, at a 128 MB LLC (Fig. 16's largest point); a config with
// an explicit Hierarchy (TestConfig) keeps its own.
var recoveryModel = episodeStudy{
	title:  "Ablation: CHV recovery read-back model",
	header: []string{"model", "recovery time"},
	labels: []string{"recovery-model/Horus-SLM"},
	episode: func(_ int, c Config) (*report.Table, error) {
		c.LLCBytes = 128 << 20
		sys, res, err := drainedSystem(c, HorusSLM)
		if err != nil {
			return nil, err
		}
		sys.Crash()
		serial, err := RecoverSerial(sys, res.Persist)
		if err != nil {
			return nil, err
		}
		sys.Core.Sec.Crash()
		parallel, err := RecoverParallel(sys, res.Persist)
		if err != nil {
			return nil, err
		}
		f := &report.Table{}
		f.AddRow("serial (paper Fig. 16)", serial.String())
		f.AddRow("bank-parallel (extension)", parallel.String())
		f.AddNote("speedup %.1fx: the banked NVM leaves recovery-time headroom", float64(serial)/float64(parallel))
		return f, nil
	},
}

// recoveryMechanisms times the three recovery designs: Horus's CHV
// read-back and the Anubis-style metadata vault recover a drained
// worst-case hierarchy; Osiris rebuilds the counters and the whole tree
// after an ADR crash of a key-value workload, with no vault at all.
var recoveryMechanisms = episodeStudy{
	title:  "Ablation: recovery mechanism (recovery time)",
	header: []string{"mechanism", "scheme", "crashed state", "recovery time"},
	labels: []string{"recovery-mechanism/horus-chv", "recovery-mechanism/anubis-vault", "recovery-mechanism/osiris-rebuild"},
	episode: func(i int, c Config) (*report.Table, error) {
		f := &report.Table{}
		if i < 2 {
			scheme := []Scheme{HorusSLM, BaseLU}[i]
			sys, res, err := drainedSystem(c, scheme)
			if err != nil {
				return nil, err
			}
			sys.Crash()
			rec, err := sys.Recover(res.Persist)
			f.AddRow([]string{"Horus CHV", "Anubis vault"}[i], scheme.String(), "drained hierarchy", rec.Time().String())
			return f, err
		}
		c.Sec.OsirisStopLoss = 4
		ws := NewWorkloadSystem(c, BaseLU, DomainADR)
		if err := ws.Run(KVStoreWorkload(WorkloadConfig{Ops: 4000, WorkingSet: 256 << 10, Seed: 17}, 4)); err != nil {
			return nil, err
		}
		ws.Machine.Crash()
		ws.Core.Sec.Crash()
		res, err := ws.RecoverWithOsiris()
		f.AddRow("Osiris rebuild", BaseLU.String(), "ADR crash, 4,000 KV ops", res.RecoveryTime.String())
		return f, err
	},
	note: "Osiris recovers a smaller crash with no drain and no vault: it scans the written memory and rebuilds the whole tree",
}

// chvRotationEpisodes is how many drain/recover episodes chvRotation runs
// on one Horus-SLM machine per rotation-region count.
const chvRotationEpisodes = 8

// chvRotation reports the hottest CHV cell's wear after repeated drains
// with one and with four rotation regions.
var chvRotation = episodeStudy{
	title:  fmt.Sprintf("Ablation: CHV rotation wear levelling (Horus-SLM, %d drain/recover episodes)", chvRotationEpisodes),
	header: []string{"rotation regions", "max CHV cell writes", "wear levelling"},
	labels: []string{"chv-rotation/regions=1", "chv-rotation/regions=4"},
	episode: func(i int, c Config) (*report.Table, error) {
		c.CHVRegions = []int{1, 4}[i]
		sys := NewSystem(c, HorusSLM)
		sys.Fill()
		for e := 0; e < chvRotationEpisodes; e++ {
			res, err := sys.Drain()
			if err != nil {
				return nil, err
			}
			sys.Crash()
			if _, err := sys.Recover(res.Persist); err != nil {
				return nil, err
			}
		}
		maxWear, _ := sys.Core.NVM.WearInRange(sys.Core.Layout.CHVDataBase, sys.Core.Layout.VaultBase)
		f := &report.Table{}
		f.AddRow(fmt.Sprint(c.CHVRegions), report.Count(maxWear), report.Ratio(float64(chvRotationEpisodes)/float64(maxWear)))
		return f, nil
	},
	note: "rotation regions trade reserved NVM capacity for endurance of the vault cells",
}

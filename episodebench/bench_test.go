package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"testing"
	"time"
)

func TestBucketOfSyntheticStacks(t *testing.T) {
	for _, tc := range []struct {
		want  string
		stack []string // innermost first
	}{
		{"runtime.alloc", []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/mem.(*addrMap).grow"}},
		{"runtime.alloc", []string{"runtime.mallocgc", "runtime.newobject", "repro/internal/secmem.New"}},
		{"secmem", []string{"runtime.mapaccess2_fast64", "repro/internal/secmem.(*Controller).insertLine", "repro.(*System).Drain"}},
		{"core", []string{"sort.insertionSort", "sort.Sort", "repro/internal/core.(*Drainer).Drain", "repro.(*System).Drain"}},
		{"sim", []string{"slices.SortFunc[go.shape.struct { repro/internal/mem.x }]", "repro/internal/sim.(*Resource).Reserve"}},
		{"cme", []string{"crypto/aes.encryptBlockAsm", "crypto/cipher.(*ctr).XORKeyStream", "repro/internal/cme.(*Engine).OTP"}},
		{"runsim", []string{"repro/internal/workload.Uniform"}},
		{"runsim", []string{"repro/internal/runsim.(*Machine).Run"}},
		{"obs", []string{"repro/internal/obs/timeseries.(*Sampler).Record"}},
		{"other", []string{"repro/internal/timeline.(*Recorder).OnReserve", "repro/internal/sim.(*Resource).Reserve"}},
		{"horus", []string{"repro.RunTortureMatrix.func1", "repro/internal/sweep.(*Runner).Run.func2"}},
		{"sweep", []string{"runtime.chansend1", "repro/internal/sweep.(*Runner).Run.func2"}},
		{"bench", []string{"main.verifyPaper", "main.runEpisode"}},
		{"runtime.gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"runtime.gc", nil},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%q) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestFoldBucketsAndPhases(t *testing.T) {
	p := &cpuProfile{PeriodNs: 10_000_000}
	for i, stack := range [][]string{
		{"repro/internal/mem.(*Store).Write"},
		{"runtime.mallocgc", "repro/internal/core.(*Drainer).Drain"},
		{"runtime.gcBgMarkWorker"},
		{"repro/internal/litmus.Orderings"},
		{"repro/internal/bmt.(*Layout).NodeAddr"},
	} {
		s := stackSample{Funcs: stack, Count: int64(i + 1), Phase: []string{"drain", "", "fill"}[i%3]}
		p.Samples = append(p.Samples, s)
		p.Total += s.Count
	}
	buckets, phases := fold(p)
	want := map[string]int64{"mem": 1, "runtime.alloc": 2, "runtime.gc": 3, "other": 4, "bmt": 5}
	if !reflect.DeepEqual(buckets, want) {
		t.Errorf("buckets = %v, want %v", buckets, want)
	}
	if phases["drain"] != 1+4 || phases["fill"] != 3 || phases[""] != 2+5 {
		t.Errorf("phases = %v", phases)
	}
}

// pb encodes protocol-buffer fields for hand-built profiles.
type pb []byte

func (b pb) varint(x uint64) pb {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}

func (b pb) uint(num int, x uint64) pb { return b.varint(uint64(num) << 3).varint(x) }

func (b pb) bytes(num int, data []byte) pb {
	return append(b.varint(uint64(num)<<3|2).varint(uint64(len(data))), data...)
}

// handProfile builds a gzipped profile with one function
// (repro/internal/mem.Write, id 1) at location 1, location 2 without line
// entries, and one sample of count 1<<i per given location list.
func handProfile(t *testing.T, sampleLocs ...[]uint64) []byte {
	var p pb
	for i, locs := range sampleLocs {
		var smp pb
		for _, l := range locs {
			smp = smp.uint(1, l)
		}
		p = p.bytes(2, smp.uint(2, 1<<i))
	}
	p = p.bytes(4, pb(nil).uint(1, 1).bytes(4, pb(nil).uint(1, 1)))
	p = p.bytes(4, pb(nil).uint(1, 2))
	p = p.bytes(5, pb(nil).uint(1, 1).uint(2, 1))
	p = p.bytes(6, nil).bytes(6, []byte("repro/internal/mem.Write"))
	p = p.uint(12, 10_000_000)
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A stack the decoder cannot resolve would fold silently into runtime.gc;
// it is counted instead, and the self-check fails on it.
func TestParseCountsUnresolvedStacks(t *testing.T) {
	p, err := parseCPUProfile(handProfile(t, []uint64{1}))
	if err != nil {
		t.Fatal(err)
	}
	if p.Total != 1 || p.Unresolved != 0 || p.PeriodNs != 10_000_000 || !reflect.DeepEqual(p.Samples[0].Funcs, []string{"repro/internal/mem.Write"}) {
		t.Fatalf("well-formed profile decoded as %+v", p)
	}
	// Samples of count 1, 2, 4, 8: resolved; unknown location; no
	// locations; a location without line entries.
	p, err = parseCPUProfile(handProfile(t, []uint64{1}, []uint64{1, 9}, nil, []uint64{2}))
	if err != nil {
		t.Fatal(err)
	}
	if p.Total != 15 || p.Unresolved != 2+4+8 {
		t.Errorf("total %d, unresolved %d; want 15 and 14", p.Total, p.Unresolved)
	}
	d := newTraceData()
	if err := d.addProfile(handProfile(t, nil), 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if fails := d.selfCheck(1); len(fails) == 0 {
		t.Error("self-check passed a profile with an unresolved stack")
	}
}

// The self-check compares the profile against getrusage, a measurement
// taken apart from it, and sums only the buckets the metrics print.
func TestSelfCheckAgainstRusage(t *testing.T) {
	check := func(buckets map[string]int64, rusage time.Duration) []string {
		d := newTraceData()
		d.periodNs = 10_000_000
		for b, n := range buckets {
			d.buckets[b] = n
			d.samples += n
		}
		d.rusageNs = rusage.Nanoseconds()
		return d.selfCheck(1)
	}
	good := map[string]int64{"mem": 60, "runtime.gc": 40}
	if fails := check(good, time.Second); len(fails) != 0 {
		t.Errorf("consistent profile failed: %v", fails)
	}
	if fails := check(good, 900*time.Millisecond); len(fails) != 0 {
		t.Errorf("profile within tolerance failed: %v", fails)
	}
	if fails := check(good, 1500*time.Millisecond); len(fails) != 1 {
		t.Errorf("profile 33%% short of getrusage: failures %v, want one", fails)
	}
	if fails := check(map[string]int64{"mem": 60, "nosuch": 40}, time.Second); len(fails) != 1 {
		t.Errorf("samples outside the printed buckets: failures %v, want one", fails)
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

// The decoder reads a real runtime/pprof profile: every sample is folded,
// labels survive, and the test's own frames land in a project bucket.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	pprof.Do(context.Background(), pprof.Labels("phase", "spin"), func(context.Context) { spin(400 * time.Millisecond) })
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.Total == 0 || p.PeriodNs <= 0 {
		t.Fatalf("profile has %d samples, period %d ns", p.Total, p.PeriodNs)
	}
	if p.Unresolved != 0 {
		t.Errorf("%d of %d samples unresolved", p.Unresolved, p.Total)
	}
	buckets, phases := fold(p)
	if phases["spin"] == 0 {
		t.Errorf("no sample carries the phase label: %v", phases)
	}
	if buckets["bench"] == 0 {
		t.Errorf("no sample attributed to the benchmark's own frames: %v", buckets)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

// fakeWorkload returns the given simulated output from every episode,
// under the name of a workload with committed references.
func fakeWorkload(name string, out Reference) workload {
	return workload{name: name, scale: "test", prepare: func(int64) (episodeFunc, error) {
		return func(ep *episodeCtx) (verifyFunc, error) {
			err := ep.phase("drain", func() error { time.Sleep(20 * time.Millisecond); return nil })
			return func() (Reference, error) { return out, nil }, err
		}, nil
	}}
}

func TestReferenceMismatchRaisesErrorFrac(t *testing.T) {
	ref, ok := lookupReference("paper-horus-slm", defaultSeed)
	if !ok {
		t.Fatal("no committed reference at the default seed")
	}
	o := options{workload: "paper-horus-slm", seed: defaultSeed, seconds: 1}

	res, err := measure(fakeWorkload(o.workload, ref), o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	_, m := res.endToEnd()
	if res.failed != 0 || m["error_frac"].Value != 0 || !res.jsonResult()["correct"].(bool) {
		t.Fatalf("matching output: %d of %d failed", res.failed, len(res.episodes))
	}

	bad := ref
	bad.DrainPs++
	var out bytes.Buffer
	res, err = measure(fakeWorkload(o.workload, bad), o, &out)
	if err != nil {
		t.Fatal(err)
	}
	_, m = res.endToEnd()
	if m["error_frac"].Value != 1 || res.failed != len(res.episodes) {
		t.Errorf("mismatched output: error_frac %v, %d of %d failed", m["error_frac"].Value, res.failed, len(res.episodes))
	}
	if res.jsonResult()["correct"].(bool) {
		t.Error("mismatched output reported correct")
	}
	if !bytes.Contains(out.Bytes(), []byte("drain_ps: want")) {
		t.Errorf("report does not print the diff:\n%s", out.String())
	}
}

func TestSeedChangesInputsAndReferenceLookup(t *testing.T) {
	a, b := matrixStream(1), matrixStream(2)
	if reflect.DeepEqual(a.Ops, b.Ops) {
		t.Error("crash-matrix stream does not depend on the seed")
	}
	if !reflect.DeepEqual(a.Ops, matrixStream(1).Ops) {
		t.Error("crash-matrix stream is not reproducible from its seed")
	}
	if paperConfig(1).Seed == paperConfig(2).Seed || matrixConfig(1).Seed == matrixConfig(2).Seed {
		t.Error("machine configuration does not carry the seed")
	}
	for _, w := range workloads {
		seeds := referenceSeeds(w.name)
		if len(seeds) != 2 || seeds[0] != defaultSeed {
			t.Errorf("%s: reference seeds %v, want the default seed and one held-out seed", w.name, seeds)
			continue
		}
		r1, _ := lookupReference(w.name, seeds[0])
		r2, _ := lookupReference(w.name, seeds[1])
		if reflect.DeepEqual(r1, r2) {
			t.Errorf("%s: references at seeds %v are identical", w.name, seeds)
		}
		if _, ok := lookupReference(w.name, seeds[1]+1); ok {
			t.Errorf("%s: reference found for an unreferenced seed", w.name)
		}
	}
}

// BENCHMARK.json at the repository root names exactly the metrics this
// command prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := workloadNames(); !reflect.DeepEqual(names, got) {
		t.Errorf("workloads %v, command runs %v", names, got)
	}
	r := &result{}
	_, e2e := r.endToEnd()
	for _, n := range reportOnly {
		delete(e2e, n)
	}
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, command prints %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if e2e[m.Name].Unit != m.Unit {
			t.Errorf("end-to-end %s: unit %q, command prints %q", m.Name, m.Unit, e2e[m.Name].Unit)
		}
	}
	var want, got []string
	for _, m := range spec.PerLayer {
		want = append(want, m.Name+" "+m.Unit)
	}
	for _, m := range perLayerMetrics {
		got = append(got, m.name+" "+m.unit)
	}
	sort.Strings(want)
	sort.Strings(got)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("per-layer metrics differ:\nBENCHMARK.json %v\ncommand        %v", want, got)
	}
}

func TestParseVmHWM(t *testing.T) {
	got, err := parseVmHWM([]byte("Name:\tepisodebench\nVmPeak:\t 900 kB\nVmHWM:\t    2992 kB\nVmRSS:\t 1000 kB\n"))
	if err != nil || got != 2992<<10 {
		t.Errorf("parseVmHWM = %d, %v; want %d", got, err, 2992<<10)
	}
	for _, bad := range []string{"", "VmRSS:\t1 kB\n", "VmHWM:\tlots kB\n", "VmHWM:\t12 MB\n", "VmHWM:\t0 kB\n"} {
		if n, err := parseVmHWM([]byte(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) = %d, want an error", bad, n)
		}
	}
}

// The reset makes the mark per episode: a 64 MiB buffer shows in the peak
// it was resident for, and not in the peak after a reset once it is gone.
func TestPeakRSSResetsPerEpisode(t *testing.T) {
	if err := resetPeakRSS(); err != nil {
		t.Skip(err)
	}
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = 1 // fault every page in
	}
	withBuf, err := peakRSS()
	if err != nil {
		t.Fatal(err)
	}
	if withBuf < int64(len(buf)) {
		t.Errorf("peak RSS %d bytes while %d bytes were resident", withBuf, len(buf))
	}
	runtime.KeepAlive(buf)
	buf = nil
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		t.Fatal(err)
	}
	after, err := peakRSS()
	if err != nil {
		t.Fatal(err)
	}
	if after > withBuf-32<<20 {
		t.Errorf("peak RSS after the reset %d bytes, before it %d: the buffer was not forgotten", after, withBuf)
	}
}

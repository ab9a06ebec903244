// Command episodebench is the repository's end-to-end benchmark. It runs
// whole simulated episodes of one named workload against the root horus
// API for a wall-clock budget, checks every simulated output against the
// self-checks and the committed references, and prints a human-readable
// report followed by one JSON result line.
//
// Run it from the repository root through the launcher, which builds it
// from source first:
//
//	bash episodebench/run.sh --workload paper-base-lu --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the JSON line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics from spans, a CPU profile
// folded by module, and the exact counts of the simulated results.
// README.md lists the workloads, the metrics and which layer should move
// which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("episodebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, "seed every input is generated from")
	fs.IntVar(&o.seconds, "seconds", 30, "wall-clock budget of the measured episodes, seconds")
	fs.IntVar(&trace, "trace", 0, "0 = end-to-end metrics; 1 = traced run with per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "episodebench"), "directory the traced run writes its span file to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(o.workload)
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "episodebench: unexpected argument %q\n", fs.Arg(0))
		return 2
	case !ok:
		fmt.Fprintf(stderr, "episodebench: unknown workload %q, want one of %s\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	case o.seconds < 1:
		fmt.Fprintf(stderr, "episodebench: --seconds %d, want at least 1\n", o.seconds)
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintf(stderr, "episodebench: --trace %d, want 0 or 1\n", trace)
		return 2
	}
	o.trace = trace == 1

	res, err := measure(w, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "episodebench: %v\n", err)
		return 1
	}
	if o.trace {
		path, err := res.writeTrace(o.out)
		if err != nil {
			fmt.Fprintf(stderr, "episodebench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans and profile buckets written to %s\n", path)
	}
	line, err := json.Marshal(res.jsonResult())
	if err != nil {
		fmt.Fprintf(stderr, "episodebench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// fingerprint identifies the host and configuration a result was measured
// on; allocation and CPU figures are comparable only between equal
// fingerprints.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Shards     int    `json:"shards_inferred"`
	Workers    int    `json:"matrix_workers,omitempty"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Scale      string `json:"scale"`
}

func hostFingerprint(w workload) fingerprint {
	return fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		// Inferred, not read from the library: the root API exposes no
		// resolved shard count. Every workload keeps Config.Shards at
		// zero, which the library documents as resolving to GOMAXPROCS.
		Shards:    runtime.GOMAXPROCS(0),
		Workers:   w.workers,
		CPUModel:  cpuModel(),
		GoVersion: runtime.Version(),
		Scale:     w.scale,
	}
}

func (f fingerprint) String() string {
	s := fmt.Sprintf("host: nproc=%d gomaxprocs=%d shards=%d(inferred) cpu=%q go=%s scale=%s",
		f.NumCPU, f.GOMAXPROCS, f.Shards, f.CPUModel, f.GoVersion, f.Scale)
	if f.Workers > 0 {
		s += fmt.Sprintf(" matrix_workers=%d", f.Workers)
	}
	return s
}

// cpuModel reads the processor name the kernel reports, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

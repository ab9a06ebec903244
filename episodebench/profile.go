package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// stackSample is one CPU-profile sample: the function names of its stack,
// innermost first (inlined frames included), its sample count, and the
// value of its "phase" label ("" when the sample carries none).
type stackSample struct {
	Funcs []string
	Count int64
	Phase string
}

// cpuProfile is a decoded runtime/pprof CPU profile.
type cpuProfile struct {
	Samples  []stackSample
	Total    int64 // sum of every sample's count
	PeriodNs int64 // CPU time one sample stands for
	// Unresolved counts the samples whose stack has no frames or names a
	// location or function the profile does not define: a decoder fault
	// that would otherwise fold silently into runtime.gc.
	Unresolved int64
}

// Project modules the per-layer metrics name. obs is the metrics registry
// a traced episode attaches, so its time is tracing overhead. Samples whose
// innermost project frame lies elsewhere in the repository (timeline,
// energy, ...) fold into "other"; the benchmark's own frames fold into
// "bench".
var layerModules = []string{
	"horus", "secmem", "core", "sim", "mem", "cache", "bmt", "cme",
	"hierarchy", "recovery", "runsim", "faultinject", "sweep", "shard", "obs",
}

// Buckets a CPU profile is folded into: the project modules above plus
// the two runtime buckets and the two catch-alls. Every sample lands in
// exactly one.
var profileBuckets = append(append([]string(nil), layerModules...),
	"other", "bench", "runtime.alloc", "runtime.gc")

// bucketOf folds one stack (innermost frame first) into its bucket:
//   - runtime.alloc when the stack is inside the allocator or memory
//     clearing (mallocgc, memclr*), whoever called it;
//   - otherwise the module of the innermost project frame, so Go map,
//     sort and other standard-library frames count against their caller;
//   - otherwise runtime.gc: a stack with no project frame is collector,
//     scheduler or other runtime work.
func bucketOf(funcs []string) string {
	for _, f := range funcs {
		if strings.HasPrefix(f, "runtime.mallocgc") || strings.HasPrefix(f, "runtime.memclr") {
			return "runtime.alloc"
		}
	}
	for _, f := range funcs {
		if m, ok := moduleOf(f); ok {
			return m
		}
	}
	return "runtime.gc"
}

// moduleOf maps a function name to its project module, reporting false for
// frames outside the project.
func moduleOf(fn string) (string, bool) {
	switch {
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "repro/episodebench."):
		// The command's frames; its test binary keeps the import path.
		return "bench", true
	case strings.HasPrefix(fn, "repro."):
		return "horus", true
	case strings.HasPrefix(fn, "repro/internal/"):
		rest := fn[len("repro/internal/"):]
		end := strings.IndexAny(rest, "/.")
		if end < 0 {
			return "other", true
		}
		switch m := rest[:end]; m {
		case "workload":
			return "runsim", true // one layer: the run-time machine and its streams
		default:
			for _, l := range layerModules {
				if l == m {
					return m, true
				}
			}
			return "other", true
		}
	case strings.HasPrefix(fn, "repro/"):
		return "other", true
	}
	return "", false
}

// fold counts a profile's samples per bucket and per phase label.
func fold(p *cpuProfile) (buckets, phases map[string]int64) {
	buckets = make(map[string]int64, len(profileBuckets))
	phases = map[string]int64{}
	for _, s := range p.Samples {
		buckets[bucketOf(s.Funcs)] += s.Count
		phases[s.Phase] += s.Count
	}
	return buckets, phases
}

// parseCPUProfile decodes the gzipped protocol-buffer profile
// runtime/pprof writes. Only the fields the folding needs are read:
// samples (location ids, values, labels), locations (their line entries),
// functions (names), the string table and the sampling period.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, str string-table indices
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> name string index
		strtab    []string
		period    int64
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var key, str int64
					err := eachField(b, func(num int, v uint64, _ []byte) error {
						switch num {
						case 1:
							key = int64(v)
						case 2:
							str = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, [2]int64{key, str})
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strtab = append(strtab, string(b))
		case 12: // period
			period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i int64) string {
		if i < 0 || int(i) >= len(strtab) {
			return ""
		}
		return strtab[i]
	}
	p := &cpuProfile{PeriodNs: period}
	for _, rs := range samples {
		if len(rs.values) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		s := stackSample{Count: rs.values[0]}
		resolved := len(rs.locs) > 0
		for _, loc := range rs.locs {
			fids, ok := locFuncs[loc]
			resolved = resolved && ok && len(fids) > 0
			for _, fid := range fids {
				name, ok := funcNames[fid]
				resolved = resolved && ok && str(name) != ""
				s.Funcs = append(s.Funcs, str(name))
			}
		}
		if !resolved {
			p.Unresolved += s.Count
		}
		for _, l := range rs.labels {
			if str(l[0]) == "phase" {
				s.Phase = str(l[1])
			}
		}
		p.Total += s.Count
		p.Samples = append(p.Samples, s)
	}
	return p, nil
}

// eachField walks the fields of one protocol-buffer message. For varint
// and fixed-width fields fn receives the value; for length-delimited
// fields it receives the bytes.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			for i := 3; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field that arrived either as
// one unpacked value (data == nil) or as a packed run.
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// uvarint decodes a base-128 varint, returning the bytes consumed (0 on
// truncated or overlong input).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	horus "repro"
)

// counts is a per-category access or MAC count.
type counts map[string]int64

func (c counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

func (c counts) total() int64 {
	var t int64
	for _, v := range c {
		t += v
	}
	return t
}

// countsOf copies a simulated counter set (nil-safe).
func countsOf(cs interface {
	SortedNames() []string
	Get(string) int64
}) counts {
	out := counts{}
	for _, n := range cs.SortedNames() {
		out[n] = cs.Get(n)
	}
	return out
}

// Reference is the simulated output of one episode of a workload. Every
// field is exact: a change that only speeds the simulator up must leave it
// bit-for-bit as committed in references.json.
type Reference struct {
	DrainPs       int64  `json:"drain_ps"`
	RecoverPs     int64  `json:"recover_ps"`
	BlocksDrained int    `json:"blocks_drained"`
	MemReads      counts `json:"mem_reads"`
	MemWrites     counts `json:"mem_writes"`
	MACs          counts `json:"macs"`
	AESOps        int64  `json:"aes_ops"`
	RecoveryReads int64  `json:"recovery_reads"`
	RecoveryMACs  int64  `json:"recovery_macs"`
	// BlocksHash is a SHA-256 over the recovered blocks, sorted by address.
	BlocksHash string `json:"blocks_hash"`
	// Steps, Cells and CellsHash describe a crash matrix: drain writes per
	// scheme, cells per outcome, and a SHA-256 over the (scheme, flavor,
	// step, outcome) table.
	Steps     map[string]int `json:"steps,omitempty"`
	Cells     map[string]int `json:"cells,omitempty"`
	CellsHash string         `json:"cells_hash,omitempty"`
}

// JSON renders the record on one line.
func (r Reference) JSON() (string, error) {
	b, err := json.Marshal(r)
	return string(b), err
}

// diffReference lists the fields where got differs from want.
func diffReference(want, got Reference) []string {
	var w, g map[string]json.RawMessage
	wb, _ := json.Marshal(want) // plain data: cannot fail
	gb, _ := json.Marshal(got)
	_ = json.Unmarshal(wb, &w)
	_ = json.Unmarshal(gb, &g)
	keys := map[string]bool{}
	for k := range w {
		keys[k] = true
	}
	for k := range g {
		keys[k] = true
	}
	var names []string
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	var diffs []string
	for _, k := range names {
		if string(w[k]) != string(g[k]) {
			diffs = append(diffs, fmt.Sprintf("%s: want %s, got %s", k, w[k], g[k]))
		}
	}
	return diffs
}

// sortByAddr sorts blocks into ascending address order in place.
func sortByAddr(blocks []horus.DirtyBlock) {
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Addr < blocks[j].Addr })
}

// hashBlocks is a SHA-256 over blocks (address, then data) in the given
// order; callers pass them sorted by address.
func hashBlocks(blocks []horus.DirtyBlock) string {
	d := sha256.New()
	var a [8]byte
	for _, b := range blocks {
		binary.LittleEndian.PutUint64(a[:], b.Addr)
		d.Write(a[:])
		d.Write(b.Data[:])
	}
	return hex.EncodeToString(d.Sum(nil))
}

// references.json maps workload -> seed -> Reference for the default seed
// and one held-out seed. Other seeds run with the self-checks only.
//
//go:embed references.json
var referencesJSON []byte

var references = func() map[string]map[string]Reference {
	var m map[string]map[string]Reference
	if err := json.Unmarshal(referencesJSON, &m); err != nil {
		panic(fmt.Sprintf("episodebench: references.json: %v", err))
	}
	return m
}()

func lookupReference(workload string, seed int64) (Reference, bool) {
	r, ok := references[workload][strconv.FormatInt(seed, 10)]
	return r, ok
}

// referenceSeeds lists the seeds with a committed reference.
func referenceSeeds(workload string) []int64 {
	var out []int64
	for k := range references[workload] {
		if s, err := strconv.ParseInt(k, 10, 64); err == nil {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

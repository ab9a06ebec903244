package horus

import (
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
)

// cliBinaries builds the CLIs under test once per test binary and returns
// the directory holding them. The Go build cache makes repeat builds cheap;
// the build runs in the package directory, so the module context is the
// repo's own.
var cliBinaries = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "horus-cli-")
	if err != nil {
		return "", err
	}
	for _, name := range []string{"horus-drain", "horus-torture", "horus-litmus", "horus-fleet", "horus-perfbench", "horus-plan", "horus-runtime"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, name), "./cmd/"+name)
		if out, err := cmd.CombinedOutput(); err != nil {
			return "", &buildError{name: name, out: string(out), err: err}
		}
	}
	return dir, nil
})

type buildError struct {
	name string
	out  string
	err  error
}

func (e *buildError) Error() string {
	return "building " + e.name + ": " + e.err.Error() + "\n" + e.out
}

// TestCLIExitCodeContract pins the cross-CLI exit-code contract the CI
// jobs and the ops runbooks depend on:
//
//	0 — run completed and every contract held
//	1 — oracle violation or fatal error (bad flags, harness failure)
//	2 — SLO violation (the run itself was sound, an objective was missed)
//
// go run must not be used here: it remaps the child's exit status, so the
// contract is only observable on the built binaries.
func TestCLIExitCodeContract(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binaries")
	}
	bin, err := cliBinaries()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cli  string
		args []string
		want int
	}{
		{"drain clean run", "horus-drain",
			[]string{"-scale", "test", "-scheme", "horus-slm"}, 0},
		{"drain SLO violation", "horus-drain",
			[]string{"-scale", "test", "-scheme", "horus-slm", "-battery-j", "1e-9"}, 2},
		{"drain bad scheme", "horus-drain",
			[]string{"-scale", "test", "-scheme", "bogus"}, 1},
		{"torture non-secure scheme", "horus-torture",
			[]string{"-scale", "test", "-scheme", "non-secure"}, 1},
		{"litmus bad scheme", "horus-litmus",
			[]string{"-scheme", "bogus"}, 1},
		{"fleet clean run", "horus-fleet",
			[]string{"-machines", "4", "-racks", "2", "-sessions", "16",
				"-outages", "1ms:2ms:all"}, 0},
		{"fleet storm SLO violation", "horus-fleet",
			[]string{"-machines", "4", "-racks", "2", "-sessions", "16",
				"-outages", "1ms:2ms:all", "-storm-slo", "1ns"}, 2},
		{"fleet bad schedule", "horus-fleet",
			[]string{"-outages", "bogus"}, 1},
		{"perfbench non-positive reps", "horus-perfbench",
			[]string{"-reps", "-3", "-out", ""}, 1},
		{"perfbench warn above fail", "horus-perfbench",
			[]string{"-warn", "0.5", "-fail", "0.3", "-out", ""}, 1},
		{"plan zero banks", "horus-plan", []string{"-banks", "0"}, 1},
		{"plan negative banks", "horus-plan", []string{"-banks", "-3"}, 1},
		{"plan zero llc", "horus-plan", []string{"-llc", "0"}, 1},
		{"plan negative mem", "horus-plan", []string{"-mem", "-1"}, 1},
		{"runtime persist above 100", "horus-runtime", []string{"-persist", "150"}, 1},
		{"runtime negative persist", "horus-runtime", []string{"-persist", "-1"}, 1},
		{"runtime negative ops", "horus-runtime", []string{"-ops", "-5"}, 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command(filepath.Join(bin, tc.cli), tc.args...)
			out, err := cmd.CombinedOutput()
			got := 0
			if err != nil {
				ee, ok := err.(*exec.ExitError)
				if !ok {
					t.Fatalf("%s %v: %v", tc.cli, tc.args, err)
				}
				got = ee.ExitCode()
			}
			if got != tc.want {
				t.Errorf("%s %v exited %d, want %d\noutput:\n%s",
					tc.cli, tc.args, got, tc.want, out)
			}
		})
	}
}

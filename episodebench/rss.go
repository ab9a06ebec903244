package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strconv"
)

// The peak resident set size of one episode comes from the kernel's
// high-water mark, VmHWM. It covers the whole process, so one episode
// whose collector ran late would set it for the run; writing 5 to
// /proc/self/clear_refs (Linux 4.0 and later) resets it to the current
// RSS, so the mark read after an episode is that episode's own peak.

// resetPeakRSS sets the process's high-water mark to its current RSS.
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	_, err = f.Write([]byte("5"))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

// peakRSS returns the process's high-water mark in bytes.
func peakRSS() (int64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading the peak RSS: %w", err)
	}
	return parseVmHWM(status)
}

// parseVmHWM reads the "VmHWM:  <n> kB" line of /proc/<pid>/status.
func parseVmHWM(status []byte) (int64, error) {
	for _, line := range bytes.Split(status, []byte("\n")) {
		v, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		v, ok = bytes.CutSuffix(bytes.TrimSpace(v), []byte("kB"))
		kb, err := strconv.ParseInt(string(bytes.TrimSpace(v)), 10, 64)
		if !ok || err != nil || kb <= 0 {
			return 0, fmt.Errorf("peak RSS: malformed line %q", line)
		}
		return kb << 10, nil
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}

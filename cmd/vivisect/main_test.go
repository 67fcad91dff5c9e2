package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestSweepWritesProfiles pins -cpuprofile/-memprofile to every mode, the
// simulator-bound sweep included: the sweep must leave both profiles
// behind, non-empty, when it exits.
func TestSweepWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	code := vivisect([]string{"-cpuprofile", cpu, "-memprofile", mem,
		"sweep", "-carriers", "1", "-drive-seconds", "30", "-jobs", "1"})
	if code != 0 {
		t.Fatalf("sweep exited %d", code)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(path))
		}
	}
}

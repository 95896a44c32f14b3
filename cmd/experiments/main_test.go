package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tlbmap/internal/harness"
	"tlbmap/internal/npb"
)

// -exp table3 -csv DIR writes Table III as table3.csv.
func TestTable3WritesCSV(t *testing.T) {
	dir := t.TempDir()
	cfg := harness.Config{Class: npb.ClassS, Benchmarks: []string{"CG"}, Repetitions: 1}
	if err := run(cfg, "table3", dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table3.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "benchmark,") || !strings.HasPrefix(lines[1], "CG,") {
		t.Fatalf("table3.csv = %q, want a header and a CG row", data)
	}
}

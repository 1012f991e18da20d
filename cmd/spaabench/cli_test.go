package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadGraphSizeErrors: a graph size the generator cannot build is an
// error exit (1), never a panic, on every subcommand that generates a
// graph.RandomGnm instance from -n/-m/-u.
func TestBadGraphSizeErrors(t *testing.T) {
	for _, cmd := range []string{"sssp", "raster", "timeline", "why", "gen", "dot", "congest"} {
		for _, flags := range [][]string{
			{"-n", "0", "-m", "0"},
			{"-n", "8", "-m", "-1"},
			{"-n", "1", "-m", "3"},
			{"-n", "8", "-m", "16", "-u", "0"},
		} {
			argv := append([]string{cmd}, flags...)
			t.Run(strings.Join(argv, " "), func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%v panicked: %v", argv, r)
					}
				}()
				if code := realMain(argv); code != 1 {
					t.Fatalf("%v exit %d, want 1", argv, code)
				}
			})
		}
	}
	// Out-of-range vertices: 0 <= src < n and -1 <= dst < n.
	for _, argv := range [][]string{
		{"sssp", "-n", "10", "-m", "20", "-src", "50"},
		{"sssp", "-n", "10", "-m", "20", "-dst", "-5"},
		{"sssp", "-n", "10", "-m", "20", "-dst", "10"},
		{"raster", "-src", "-1"},
		{"timeline", "-n", "10", "-m", "20", "-src", "50"},
		{"faults", "-n", "10", "-m", "20", "-src", "50"},
		{"faults", "-n", "0", "-m", "0"},
		{"why", "-src", "64", "-dst", "3"},
		{"why", "-dst", "64"},
		{"gen", "-n", "-1"},
		{"gen", "-n", "5", "-m", "-3"},
		{"gen", "-kind", "ring", "-n", "0"},
		{"gen", "-kind", "complete", "-n", "3", "-u", "0"},
		{"dot", "-n", "0"},
		{"dot", "-dst", "50"},
		{"congest", "-n", "0"},
	} {
		t.Run(strings.Join(argv, " "), func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%v panicked: %v", argv, r)
				}
			}()
			if code := realMain(argv); code != 1 {
				t.Fatalf("%v exit %d, want 1", argv, code)
			}
		})
	}
}

// TestOutputDirsCreated: -out creates a missing nested directory
// instead of failing on the first manifest write.
func TestOutputDirsCreated(t *testing.T) {
	root := t.TempDir()
	for _, c := range []struct {
		argv []string
		file string
	}{
		{[]string{"perf", "-tier", "smoke", "-deterministic", "-out"}, "BENCH_perf_sssp_random_2k.json"},
		{[]string{"energy", "-cases", "sssp_random_256", "-deterministic", "-out"}, "BENCH_energy_sssp_random_256.json"},
	} {
		dir := filepath.Join(root, c.argv[0]+c.argv[len(c.argv)-1], "a", "b")
		argv := append(append([]string{}, c.argv...), dir)
		if code := realMain(argv); code != 0 {
			t.Fatalf("%v exit %d, want 0", argv, code)
		}
		if _, err := os.Stat(filepath.Join(dir, c.file)); err != nil {
			t.Errorf("%v: manifest not written: %v", argv, err)
		}
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestPerfDeterministicByteIdentical: two `spaabench bench -tier smoke
// -deterministic` invocations must write byte-identical manifests, perf
// and energy sections included — the property that lets the
// BENCH_<case>.json baselines be committed and regenerated on any
// machine.
func TestPerfDeterministicByteIdentical(t *testing.T) {
	files := []string{"BENCH_sssp_random_256.json", "BENCH_khop_compiled_24.json", "BENCH_table1_48.json"}
	var outs [2][][]byte
	for i := range outs {
		dir := t.TempDir()
		code := realMain([]string{"bench", "-tier", "smoke", "-deterministic", "-out", dir})
		if code != 0 {
			t.Fatalf("exit code %d, want 0", code)
		}
		for _, f := range files {
			raw, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil {
				t.Fatal(err)
			}
			outs[i] = append(outs[i], raw)
		}
	}
	for j, f := range files {
		if !bytes.Equal(outs[0][j], outs[1][j]) {
			t.Errorf("deterministic %s differs between invocations", f)
		}
	}
}

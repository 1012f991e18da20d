package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestPerfDeterministicByteIdentical: two `spaabench perf -deterministic`
// invocations of the same case must write byte-identical manifests —
// the property that lets BENCH_perf_*.json baselines be committed and
// regenerated on any machine.
func TestPerfDeterministicByteIdentical(t *testing.T) {
	var outs [2][]byte
	for i := range outs {
		dir := t.TempDir()
		code := realMain([]string{"perf", "-tier", "smoke", "-deterministic", "-out", dir})
		if code != 0 {
			t.Fatalf("exit code %d, want 0", code)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "BENCH_perf_sssp_random_2k.json"))
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = raw
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Error("deterministic perf manifests differ between invocations")
	}
}

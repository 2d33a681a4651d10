package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	tight := []float64{99, 100, 100, 100, 101}
	for _, c := range []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"same", []float64{101, 102, 102, 102, 103}, "lower", "same"},
		{"slower", []float64{110, 111, 111, 111, 112}, "lower", "worse"},
		{"faster", []float64{90, 91, 91, 91, 92}, "lower", "better"},
		{"fewer per second", []float64{90, 91, 91, 91, 92}, "higher", "worse"},
		{"noisy", []float64{60, 80, 111, 140, 160}, "lower", "unresolved"},
	} {
		if got := verdict(tight, c.b, c.better, 0.05); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func writeSet(t *testing.T, dir string, values []float64, failed int) string {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		rec := fmt.Sprintf(`{"workload":"w","trace":false,"result":{"correct":%v,"attempted":10,"failed":%d,"metrics":{"lat_ms":{"value":%v,"unit":"ms"}}}}`,
			failed == 0, failed, v)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("r%d.json", i)), []byte(rec), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dir, "*.json")
}

func TestRunFlagsWorseAndFailedOps(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "BENCHMARK.json")
	spec := `{"workloads":[{"name":"w","why":"x"}],"end_to_end":[{"name":"lat_ms","unit":"ms","better":"lower","bound":0.05}]}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	base := writeSet(t, filepath.Join(dir, "a"), []float64{10, 10.1, 10, 9.9, 10}, 0)
	for _, c := range []struct {
		name   string
		values []float64
		failed int
		worse  bool
		label  string
	}{
		{"same", []float64{10, 10, 10.1, 9.9, 10}, 0, false, "same"},
		{"slower", []float64{12, 12.1, 12, 11.9, 12}, 0, true, "worse"},
		{"failed ops", []float64{10, 10, 10.1, 9.9, 10}, 1, true, "same"},
	} {
		var out strings.Builder
		worse, err := run(&out, specPath, base, writeSet(t, filepath.Join(dir, c.name), c.values, c.failed))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if worse != c.worse || !strings.Contains(out.String(), c.label) {
			t.Errorf("%s: worse=%v, want %v; output:\n%s", c.name, worse, c.worse, out.String())
		}
	}
	if _, err := run(&strings.Builder{}, specPath, base, filepath.Join(dir, "none", "*.json")); err == nil {
		t.Error("an empty set was accepted")
	}
}

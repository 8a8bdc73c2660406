package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTestBaseline(t *testing.T, ns map[string]float64) string {
	t.Helper()
	data, err := json.Marshal(Baseline{NsPerOp: ns})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	base := map[string]float64{"p.A": 100, "p.B": 100, "p.C": 100, "p.D": 100}
	cases := []struct {
		name    string
		cur     map[string]float64
		wantErr string // "" means the gate passes
	}{
		{"within both bounds", map[string]float64{"p.A": 110, "p.B": 95, "p.C": 120, "p.D": 100}, ""},
		{"geomean over", map[string]float64{"p.A": 140, "p.B": 140, "p.C": 140, "p.D": 140}, "geomean"},
		{
			// One benchmark 3× slower while two others got 10× faster: the
			// geomean (≈0.42×) passes, the per-benchmark bound does not.
			"single benchmark over, geomean under",
			map[string]float64{"p.A": 300, "p.B": 10, "p.C": 10, "p.D": 100},
			"p.A 3.00x",
		},
		{"missing benchmark", map[string]float64{"p.A": 100, "p.B": 100, "p.C": 100}, "missing from this run: p.D"},
		{"new benchmark only reported", map[string]float64{"p.A": 100, "p.B": 100, "p.C": 100, "p.D": 100, "p.E": 1e9}, ""},
	}
	path := writeTestBaseline(t, base)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			err := compare(&out, path, c.cur, 1.25)
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("compare failed: %v\n%s", err, out.String())
			case c.wantErr == "" && !strings.Contains(out.String(), "benchdiff: PASS"):
				t.Fatalf("no PASS line:\n%s", out.String())
			case c.wantErr != "" && err == nil:
				t.Fatalf("compare passed, want error containing %q\n%s", c.wantErr, out.String())
			case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
				t.Fatalf("error %q does not contain %q", err, c.wantErr)
			}
		})
	}
}

func TestCompareBadBaseline(t *testing.T) {
	dir := t.TempDir()
	empty := writeTestBaseline(t, nil)
	garbled := filepath.Join(dir, "garbled.json")
	if err := os.WriteFile(garbled, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	cur := map[string]float64{"p.A": 1}
	for _, path := range []string{filepath.Join(dir, "absent.json"), empty, garbled} {
		if err := compare(io.Discard, path, cur, 1.25); err == nil {
			t.Errorf("compare(%s) passed, want error", filepath.Base(path))
		}
	}
}

func TestParseBench(t *testing.T) {
	in := `goos: linux
pkg: siren/internal/analysis
BenchmarkIdentify/n=10000/indexed-2   	     400	   2533343 ns/op	   1024 B/op	       3 allocs/op
BenchmarkIdentify/n=10000/indexed-2   	     400	   2400000 ns/op	   1024 B/op	       3 allocs/op
pkg: siren/internal/server
BenchmarkIdentify/serial/jobs=16-2    	   20000	     63623 ns/op
PASS
`
	got, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"siren/internal/analysis.BenchmarkIdentify/n=10000/indexed": 2400000, // minimum of the counts
		"siren/internal/server.BenchmarkIdentify/serial/jobs=16":    63623,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

// benchdiff is the benchmark-regression gate behind `make bench-gate`: it
// parses `go test -bench` output, reduces each benchmark to its best (minimum)
// ns/op across repeated counts — the run least disturbed by scheduler noise —
// and either writes that reduction as a baseline JSON or compares it against a
// committed baseline, failing when the geometric-mean slowdown exceeds the
// threshold or any single benchmark slows by more than perBenchBound. The
// second bound keeps a large speed-up in one benchmark from averaging away a
// regression in another.
//
// Write a baseline:
//
//	go test -bench ... -count=5 ./... | benchdiff -write -out BENCH_BASELINE.json
//
// Gate against it:
//
//	go test -bench ... -count=5 ./... | benchdiff -baseline BENCH_BASELINE.json
//
// Benchmarks are keyed by "pkg.Name" (the pkg: header joined with the
// benchmark line), so identically-named benchmarks in different packages —
// both analysis and server export BenchmarkIdentify — never collide. A
// benchmark present in the baseline but missing from the current run fails
// the gate: a silently-dropped benchmark must not pass as "no regression".
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// perBenchBound is the largest slowdown (current/baseline) any one
// benchmark may show, whatever the geomean. With the geomean bound alone,
// one of nine benchmarks could slow by up to 1.25⁹ ≈ 7.4×, or by more when
// another got faster.
const perBenchBound = 1.5

// Baseline is the committed artifact: benchmark key -> best ns/op.
type Baseline struct {
	// Note records how the file was produced, for humans re-baselining.
	Note string `json:"note"`
	// NsPerOp maps "pkg.BenchmarkName" to minimum ns/op across counts.
	NsPerOp map[string]float64 `json:"ns_per_op"`
}

func main() {
	write := flag.Bool("write", false, "write a baseline instead of comparing")
	out := flag.String("out", "BENCH_BASELINE.json", "baseline file to write (with -write)")
	baselinePath := flag.String("baseline", "BENCH_BASELINE.json", "baseline file to compare against")
	threshold := flag.Float64("threshold", 1.25, "maximum allowed geomean slowdown (current/baseline)")
	note := flag.String("note", "", "note to embed in the written baseline")
	flag.Parse()

	var in io.Reader = os.Stdin
	if args := flag.Args(); len(args) == 1 {
		f, err := os.Open(args[0])
		if err != nil {
			fatalf("%v", err)
		}
		defer func() { _ = f.Close() }() // read-only input; nothing to lose
		in = f
	} else if len(args) > 1 {
		fatalf("at most one input file (default stdin), got %v", args)
	}

	cur, err := parseBench(in)
	if err != nil {
		fatalf("parsing bench output: %v", err)
	}
	if len(cur) == 0 {
		fatalf("no benchmark results in input")
	}

	if *write {
		writeBaseline(*out, *note, cur)
		return
	}
	if err := compare(os.Stdout, *baselinePath, cur, *threshold); err != nil {
		fatalf("%v", err)
	}
}

// parseBench reads `go test -bench` output. Package headers ("pkg: path")
// scope the benchmark lines that follow; repeated counts of one benchmark
// reduce to the minimum ns/op.
func parseBench(r io.Reader) (map[string]float64, error) {
	best := make(map[string]float64)
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if after, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(after)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name  N  ns/op-value  "ns/op"  [more metric pairs]
		if len(fields) < 4 {
			continue
		}
		nsIdx := -1
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] == "ns/op" {
				nsIdx = i
				break
			}
		}
		if nsIdx < 0 {
			continue
		}
		ns, err := strconv.ParseFloat(fields[nsIdx], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %v", line, err)
		}
		name := trimProcSuffix(fields[0])
		key := pkg + "." + name
		if old, ok := best[key]; !ok || ns < old {
			best[key] = ns
		}
	}
	return best, sc.Err()
}

// trimProcSuffix drops the "-8" GOMAXPROCS suffix so keys are stable across
// machines with different core counts.
func trimProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func writeBaseline(path, note string, cur map[string]float64) {
	b := Baseline{Note: note, NsPerOp: cur}
	if b.Note == "" {
		b.Note = "min ns/op across -count repeats; re-baseline with `make bench-rebaseline` (see DESIGN.md §9)"
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("benchdiff: wrote %d benchmarks to %s\n", len(cur), path)
}

// compare prints the per-benchmark table to w and returns an error when a
// baseline benchmark is missing from cur, when the geomean slowdown exceeds
// threshold, or when any benchmark slows by more than perBenchBound.
func compare(w io.Writer, path string, cur map[string]float64, threshold float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	if len(base.NsPerOp) == 0 {
		return fmt.Errorf("baseline %s holds no benchmarks", path)
	}

	keys := make([]string, 0, len(base.NsPerOp))
	for k := range base.NsPerOp {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	logSum, n := 0.0, 0
	var missing, over []string
	fmt.Fprintf(w, "%-72s %12s %12s %8s\n", "benchmark", "baseline", "current", "ratio")
	for _, k := range keys {
		b := base.NsPerOp[k]
		c, ok := cur[k]
		if !ok {
			missing = append(missing, k)
			continue
		}
		ratio := c / b
		fmt.Fprintf(w, "%-72s %12.0f %12.0f %7.2fx\n", k, b, c, ratio)
		if ratio > perBenchBound {
			over = append(over, fmt.Sprintf("%s %.2fx", k, ratio))
		}
		logSum += math.Log(ratio)
		n++
	}
	for k, c := range cur {
		if _, ok := base.NsPerOp[k]; !ok {
			fmt.Fprintf(w, "%-72s %12s %12.0f   (new)\n", k, "-", c)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("benchmarks in baseline but missing from this run: %s", strings.Join(missing, ", "))
	}
	geomean := math.Exp(logSum / float64(n))
	fmt.Fprintf(w, "geomean slowdown: %.3fx (threshold %.2fx, %d benchmarks; per-benchmark bound %.2fx)\n",
		geomean, threshold, n, perBenchBound)
	if geomean > threshold {
		return fmt.Errorf("benchmark regression: geomean %.3fx exceeds threshold %.2fx", geomean, threshold)
	}
	if len(over) > 0 {
		return fmt.Errorf("benchmark regression: over the per-benchmark bound %.2fx: %s", perBenchBound, strings.Join(over, ", "))
	}
	fmt.Fprintln(w, "benchdiff: PASS")
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(1)
}

// Command e2ebench is SIREN's end-to-end benchmark. It records one seeded
// campaign's datagram stream in-process during set-up and drives the real
// pipeline with it: collector → wire → receiver → sirendb → postprocess →
// catalog → analysis → server.
//
//	bash e2ebench/run.sh --workload live|query|restart|collect --seed N --seconds S --trace 0|1
//
// Every workload reports the same five end-to-end metrics over its own unit
// operation (an offered datagram, an identify request, a restart, a
// collected process):
//
//	setup_s        median of three set-ups in the run
//	cpu_us_per_op  process user+sys CPU over the timed window per operation
//	p50_ms         median operation latency
//	tail_ms        tail operation latency (percentile per workload, see tailQ)
//	ops_per_s      operations completed per second of wall time
//
// With --trace 1 the run measures once untraced and once traced, and prints
// the per-layer metrics instead: self time per layer from spans around the
// calls this benchmark makes into each layer, layer-level probes, the
// store's and receiver's own obs histograms, and the tracing overhead. The
// spans are written to <workdir>/trace-<workload>-<seed>.jsonl.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Lines before it carry the
// host record and the workload's figures under the names the metrics stand
// for (fresh_p50_ms, identify_qps, …).
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"siren/internal/obs"
)

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

// env is what every workload gets: the run's arguments and a private
// directory for stores.
type env struct {
	seed    int64
	seconds time.Duration
	dir     string
}

// outcome is one timed pass of a workload.
type outcome struct {
	attempted, failed int64
	ops               int64         // unit operations attempted: the cost denominator
	done              int64         // unit operations completed
	cpu               time.Duration // process CPU over the timed window
	wall              time.Duration // wall time the ops took
	lat               []float64     // per-operation latency, ns
	figures           []figure      // the workload's figures under their own names
	layer             map[string]float64
}

type figure struct {
	name  string
	value float64
	unit  string
}

// state is a set-up workload, ready to be measured any number of times.
type state interface {
	// measure runs one timed pass; tr and reg are nil when untraced.
	measure(tr *tracer, reg *obs.Registry) (*outcome, error)
	// probe times direct calls into the workload's layers after the passes
	// (traced runs only) and adds them to layer.
	probe(tr *tracer, layer map[string]float64) error
	close() error
}

type workload struct {
	name string
	// tailQ is the tail percentile reported as tail_ms: the highest one
	// that leaves several samples beyond it at --seconds 15 (restarts are
	// few: about 45 a pass).
	tailQ float64
	setUp func(e *env) (state, [sha256.Size]byte, error)
}

var workloads = []workload{
	{"live", 0.95, setUpLive},
	{"query", 0.99, setUpQuery},
	{"restart", 0.90, setUpRestart},
	{"collect", 0.99, setUpCollect},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: live, query, restart or collect")
	seed := flag.Int64("seed", 1, "campaign seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "length of one timed pass")
	trace := flag.Int("trace", 0, "1: measure untraced and traced, print per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for stores and trace files")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		return fmt.Errorf("unknown -workload %q", *name)
	case *seconds < 1:
		return fmt.Errorf("-seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace must be 0 or 1")
	}

	dir, err := os.MkdirTemp(*workdir, "run-"+w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, dir: dir}

	host := hostRecord()
	hb, err := json.Marshal(map[string]any{"host": host})
	if err != nil {
		return err
	}
	fmt.Println(string(hb))

	// Set up several times; the last state is measured. Every set-up records
	// the stream again, so equal digests also check the input is seeded.
	var (
		st        state
		setupTime []float64
		sums      = map[[sha256.Size]byte]bool{}
	)
	for i := 0; i < setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var sum [sha256.Size]byte
		st, sum, err = w.setUp(e)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupTime = append(setupTime, time.Since(t0).Seconds())
		sums[sum] = true
	}
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	res := result{Metrics: map[string]metric{}}
	if len(sums) != 1 {
		fmt.Fprintf(os.Stderr, "e2ebench: %d different streams from one seed\n", len(sums))
		res.Failed++
	}

	plain, err := st.measure(nil, nil)
	if err != nil {
		return err
	}
	res.Attempted += plain.attempted
	res.Failed += plain.failed
	printFigures(w.name, "untraced", plain)

	if *trace == 0 {
		for _, m := range endToEnd(plain, w.tailQ, quantile(setupTime, 0.5)) {
			res.Metrics[m.name] = metric{m.value, m.unit}
		}
	} else {
		reg := obs.NewRegistry("e2ebench")
		tr := newTracer()
		traced, err := st.measure(tr, reg)
		if err != nil {
			return err
		}
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		printFigures(w.name, "traced", traced)
		layer := traced.layer
		for _, f := range traced.figures {
			if declared(f.name) {
				layer[f.name] = f.value
			}
		}
		if err := st.probe(tr, layer); err != nil {
			return err
		}
		addObs(layer, reg)
		spans := tr.snapshot()
		for l, d := range selfTime(spans) {
			layer["self."+l+"_ms"] = ms(d)
		}
		layer["trace.spans"] = float64(len(spans))
		base := endToEnd(plain, w.tailQ, 0)
		with := endToEnd(traced, w.tailQ, 0)
		for i := range base {
			if base[i].name == "cpu_us_per_op" || base[i].name == "p50_ms" {
				layer["trace.overhead_"+base[i].name+"_pct"] = 100 * (with[i].value - base[i].value) / base[i].value
			}
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{layer[m.name], m.unit}
		}
		for k := range layer {
			if !declared(k) {
				return fmt.Errorf("per-layer metric %q is not declared in perLayer", k)
			}
		}
		path := filepath.Join(*workdir, fmt.Sprintf("trace-%s-%d.jsonl", w.name, *seed))
		if err := tr.write(path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "e2ebench: %d spans written to %s\n", len(spans), path)
	}
	res.Correct = res.Failed == 0
	err = st.close()
	st = nil
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEnd derives the five end-to-end metrics from a pass.
func endToEnd(o *outcome, tailQ, setupS float64) []figure {
	return []figure{
		{"setup_s", setupS, "s"},
		{"cpu_us_per_op", float64(o.cpu.Microseconds()) / float64(max(o.ops, 1)), "us"},
		{"p50_ms", quantile(o.lat, 0.5) / 1e6, "ms"},
		{"tail_ms", quantile(o.lat, tailQ) / 1e6, "ms"},
		{"ops_per_s", float64(o.done) / o.wall.Seconds(), "1/s"},
	}
}

func printFigures(workload, pass string, o *outcome) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s: attempted=%d failed=%d", workload, pass, o.attempted, o.failed)
	for _, f := range o.figures {
		fmt.Fprintf(&b, " %s=%.6g[%s]", f.name, f.value, f.unit)
	}
	fmt.Println(b.String())
}

// hostRecord identifies the machine and code a result came from, so results
// from different hosts are never compared as like with like.
func hostRecord() map[string]any {
	rec := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu_model":  cpuModel(),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rec["commit"] = s.Value
			}
		}
	}
	if sum, err := sourceDigest("."); err == nil {
		rec["source_sha256"] = sum
	}
	return rec
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer func() { _ = f.Close() }() // read only
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every go.mod and .go file under root in path order:
// the code's identity when the checkout carries no version-control data.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Package obs is the zero-dependency metrics core shared by every siren
// serving tier: atomic counters, gauges, and log-bucketed histograms with
// percentile snapshots, grouped under a named Registry.
//
// There are no package-level globals and nothing is registered on the
// process-wide expvar or http.DefaultServeMux registries — a Registry is an
// ordinary value owned by whoever created it, so several can coexist in one
// process (mirroring the server's unregistered expvar map; the nodefaultmux
// lint rule enforces the same contract here). Exposition is pull-based:
// WritePrometheus / Handler render the Prometheus text format for a
// GET /metrics endpoint, and Expvar bridges the same instruments into the
// /debug/vars JSON shape the existing tooling already scrapes.
//
// Recording on the hot path is lock-free and allocation-free: counters and
// gauges are single atomics, and Histogram.Record is three atomic adds plus
// a CAS-bounded max — no mutex, no map lookup, no allocation. Registration
// (Registry.Counter, .Histogram, ...) takes a mutex and may allocate; do it
// once at construction time and keep the returned pointer. All instrument
// methods are nil-receiver safe, so optional instrumentation sites can hold
// a nil *Histogram and skip recording without branching at every call.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A Label is one key="value" pair attached to an instrument at registration
// time. Labels distinguish instruments within a family (same name, e.g. one
// queue-depth gauge per writer shard); they are constant for the lifetime of
// the instrument — there is no per-record label API, which is what keeps the
// record path allocation-free.
type Label struct {
	Key, Value string
}

// L is shorthand for Label{k, v} at registration call sites.
func L(k, v string) Label { return Label{Key: k, Value: v} }

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// kind is the exposition type of a family; every instrument in a family
// shares one kind, enforced at registration.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// A Registry is a named, self-contained set of instruments. The name is
// informational (it appears in error messages and the expvar bridge), not a
// metric-name prefix. Methods are safe for concurrent use.
type Registry struct {
	name string

	mu   sync.Mutex
	fams map[string]*family
}

// family groups every instrument sharing one metric name: one HELP/TYPE
// header, N labeled children.
type family struct {
	name    string
	help    string
	kind    kind
	entries []*entry // registration order; exposition preserves it
}

// entry is one labeled instrument inside a family. Exactly one of the
// instrument fields is set, matching the family kind.
type entry struct {
	labels []Label
	sig    string // canonical label signature, for idempotent registration

	counter *Counter
	gauge   *Gauge
	gfunc   func() int64
	hist    *Histogram
}

// NewRegistry returns an empty registry. name identifies the owning process
// or subsystem (e.g. "siren-receiver") in diagnostics and the expvar bridge.
func NewRegistry(name string) *Registry {
	return &Registry{name: name, fams: make(map[string]*family)}
}

// Name returns the registry's name.
func (r *Registry) Name() string { return r.name }

// labelSig canonicalizes a label set for duplicate detection: sorted by key,
// rendered as the exposition string. Registration-time only.
func labelSig(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	sig := ""
	for _, l := range ls {
		sig += l.Key + "=" + l.Value + ","
	}
	return sig
}

// register finds or creates the (name, labels) entry of the given kind and
// returns its instrument, built under r.mu so two concurrent first
// registrations share one instrument. gfunc non-nil registers a function
// instrument (CounterFunc, GaugeFunc); the first function registered for an
// entry wins. Registering the same name+labels twice returns the existing
// entry, so independent components can share one instrument; re-registering
// a name with a different kind or a malformed name panics — both are
// programmer errors, caught at construction time, never on the record path.
func (r *Registry) register(name, help string, k kind, labels []Label, gfunc func() int64) entry {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: registry %q: invalid metric name %q", r.name, name))
	}
	for _, l := range labels {
		if !labelRe.MatchString(l.Key) {
			panic(fmt.Sprintf("obs: registry %q: metric %q: invalid label key %q", r.name, name, l.Key))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k}
		r.fams[name] = f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: registry %q: metric %q registered as %s, re-registered as %s", r.name, name, f.kind, k))
	}
	sig := labelSig(labels)
	var e *entry
	for _, fe := range f.entries {
		if fe.sig == sig {
			e = fe
			break
		}
	}
	if e == nil {
		e = &entry{labels: append([]Label(nil), labels...), sig: sig}
		f.entries = append(f.entries, e)
	}
	switch {
	case gfunc != nil:
		if e.gfunc == nil {
			e.gfunc = gfunc
		}
	case k == kindCounter && e.counter == nil:
		e.counter = &Counter{}
	case k == kindGauge && e.gauge == nil:
		e.gauge = &Gauge{}
	case k == kindHistogram && e.hist == nil:
		e.hist = &Histogram{}
	}
	return *e
}

// famView is a family as exposition sees it: the entries copied under r.mu,
// so a scrape never reads a slice or an entry a registration is writing.
type famView struct {
	name, help string
	kind       kind
	entries    []entry
}

// sortedFamilies snapshots the families in name order for deterministic
// exposition.
func (r *Registry) sortedFamilies() []famView {
	r.mu.Lock()
	fams := make([]famView, 0, len(r.fams))
	for _, f := range r.fams {
		v := famView{name: f.name, help: f.help, kind: f.kind, entries: make([]entry, len(f.entries))}
		for i, e := range f.entries {
			v.entries[i] = *e
		}
		fams = append(fams, v)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// ---- Counter ----

// A Counter is a monotonically increasing value. The zero value is unusable;
// obtain one from Registry.Counter. All methods are nil-safe no-ops.
type Counter struct {
	v atomic.Int64
}

// Counter finds or creates the counter (name, labels).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, kindCounter, labels, nil).counter
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n. Negative n is ignored: counters are
// monotone by contract and a decrement is always a call-site bug.
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// ---- Gauge ----

// A Gauge is a value that can go up and down. Obtain one from
// Registry.Gauge. All methods are nil-safe.
type Gauge struct {
	v atomic.Int64
}

// Gauge finds or creates the gauge (name, labels).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, kindGauge, labels, nil).gauge
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// CounterFunc registers a counter whose value is computed by f at
// exposition time — the bridge for monotone counts a component already
// tracks in its own atomics (e.g. receiver Stats): the hot path keeps its
// single existing increment and the registry reads it only when scraped.
// f must be monotone non-decreasing and safe to call from any goroutine.
func (r *Registry) CounterFunc(name, help string, f func() int64, labels ...Label) {
	r.register(name, help, kindCounter, labels, f)
}

// GaugeFunc registers a gauge whose value is computed by f at exposition
// time — the natural shape for instantaneous facts the program already
// tracks, like channel queue depths (len(ch) is already atomic-ish and
// costs nothing until somebody scrapes). f must be safe to call from any
// goroutine.
func (r *Registry) GaugeFunc(name, help string, f func() int64, labels ...Label) {
	r.register(name, help, kindGauge, labels, f)
}

// ---- Histogram ----

// histBuckets is one bucket per possible bit length of a non-negative
// int64: bucket i holds values v with bits.Len64(v) == i, i.e. the range
// [2^(i-1), 2^i - 1]; bucket 0 holds exactly 0. Exponential (base-2)
// buckets give ~constant relative error (≤2x) across nine decades —
// nanoseconds to minutes — which is the right resolution for latency
// tails, and make the record path a single bits.Len64 plus an array index.
const histBuckets = 65

// A Histogram is a log₂-bucketed distribution of non-negative int64
// samples (by convention: nanoseconds for latencies, bytes for sizes).
// Record is lock-free and allocation-free; Snapshot derives percentiles.
// Obtain one from Registry.Histogram. All methods are nil-safe, so a nil
// *Histogram is a valid "not instrumented" sentinel on hot paths.
type Histogram struct {
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

// Histogram finds or creates the histogram (name, labels).
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	return r.register(name, help, kindHistogram, labels, nil).hist
}

// Record adds one sample. Negative samples clamp to 0 (they can only come
// from clock steps; losing them beats corrupting the bucket index).
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Observe records a duration in nanoseconds.
func (h *Histogram) Observe(d time.Duration) { h.Record(int64(d)) }

// Since records the nanoseconds elapsed since start — the one-liner for
// deferred latency recording: defer h.Since(time.Now()).
func (h *Histogram) Since(start time.Time) {
	if h == nil {
		return
	}
	h.Record(int64(time.Since(start)))
}

// A HistogramSnapshot is a point-in-time summary. Percentiles are
// upper-bound estimates from the bucket boundaries (within 2x of the true
// value, clamped to the observed Max); Max itself is exact.
type HistogramSnapshot struct {
	Count uint64
	Sum   int64
	Max   int64
	P50   int64
	P90   int64
	P99   int64
}

// Snapshot summarizes the histogram. Concurrent Records may land between
// the individual bucket loads; Count is derived from the loaded buckets so
// the snapshot is internally consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	var b [histBuckets]uint64
	var total uint64
	for i := range b {
		b[i] = h.buckets[i].Load()
		total += b[i]
	}
	s := HistogramSnapshot{Count: total, Sum: h.sum.Load(), Max: h.max.Load()}
	s.P50 = clampMax(quantile(&b, total, 0.50), s.Max)
	s.P90 = clampMax(quantile(&b, total, 0.90), s.Max)
	s.P99 = clampMax(quantile(&b, total, 0.99), s.Max)
	return s
}

func clampMax(v, max int64) int64 {
	if v > max {
		return max
	}
	return v
}

// quantile returns the upper bound of the bucket holding the q-th ranked
// sample.
func quantile(b *[histBuckets]uint64, total uint64, q float64) int64 {
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range b {
		cum += b[i]
		if cum >= rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// bucketUpper is the largest value bucket i can hold: 2^i - 1 (bucket 0
// holds only 0; the last bucket is open-ended at MaxInt64).
func bucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return (1 << uint(i)) - 1
}

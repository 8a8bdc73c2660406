package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"siren/internal/analysis"
	"siren/internal/catalog"
	"siren/internal/obs"
	"siren/internal/postprocess"
	"siren/internal/sirendb"
)

// The restart workload is the read side of sirendb: the store the whole
// stream was written to and sealed in set-up is opened again and again, each
// time until the catalog's first generation is published and identify can
// answer. Full consolidation and the index build do the work here.
type restartState struct {
	e    *env
	s    *stream
	path string
	want []byte // oracle report of the whole stream
	jobs int
}

func setUpRestart(e *env) (state, [sha256.Size]byte, error) {
	s, err := record(e.seed, baseScale)
	if err != nil {
		return nil, [sha256.Size]byte{}, err
	}
	st := &restartState{e: e, s: s, path: filepath.Join(e.dir, "restart", "siren.db"), jobs: len(s.jobs(len(s.dgs)))}
	if err := buildStore(s, st.path); err != nil {
		return nil, s.sum, err
	}
	if _, st.want, err = s.oracle(len(s.dgs)); err != nil {
		return nil, s.sum, err
	}
	return st, s.sum, nil
}

func (st *restartState) close() error { return os.RemoveAll(filepath.Dir(st.path)) }

func (st *restartState) measure(tr *tracer, reg *obs.Registry) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	var openMS, refreshMS []float64
	t0 := time.Now()
	deadline := t0.Add(st.e.seconds)
	for o.ops == 0 || time.Now().Before(deadline) {
		cpu0 := cpuTime()
		root := tr.begin("restart.to_query", 0)
		sp := tr.begin("sirendb.open", root.id)
		db, err := sirendb.OpenOptions(st.path, sirendb.Options{Metrics: reg})
		openMS = append(openMS, ms(sp.end()))
		if err != nil {
			return nil, err
		}
		sp = tr.begin("catalog.refresh", root.id)
		cat := catalog.New(catalog.StoreSource(db), catalog.Options{Metrics: reg})
		cat.Refresh()
		refreshMS = append(refreshMS, ms(sp.end()))
		o.lat = append(o.lat, float64(root.end()))
		o.cpu += cpuTime() - cpu0
		o.ops++

		// Checks, outside the timed part: every job and row is back, and the
		// first restart's report is byte-identical to the oracle's.
		gen := cat.Generation()
		ok := len(gen.Jobs()) == st.jobs && gen.Stats.Messages == len(st.s.dgs)
		if ok && o.ops == 1 {
			got, err := render(gen.Dataset.Records, gen.Stats)
			if err != nil {
				return nil, err
			}
			ok = bytes.Equal(got, st.want)
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "e2ebench: restart %d: %d jobs, %d messages; want %d and %d with the oracle's report\n",
				o.ops, len(gen.Jobs()), gen.Stats.Messages, st.jobs, len(st.s.dgs))
			o.failed++
		}
		if err := db.Close(); err != nil {
			return nil, err
		}
	}
	o.wall = time.Since(t0)
	o.attempted, o.done = o.ops, o.ops-o.failed
	o.figures = []figure{
		{"restart_to_query_s", quantile(o.lat, 0.5) / 1e9, "s"},
		{"restarts", float64(o.ops), "count"},
		{"sirendb.open_ms", quantile(openMS, 0.5), "ms"},
		{"catalog.first_refresh_ms", quantile(refreshMS, 0.5), "ms"},
	}
	return o, nil
}

// probe splits the first refresh into its two halves by calling them
// directly on a reopened snapshot.
func (st *restartState) probe(tr *tracer, layer map[string]float64) error {
	db, err := sirendb.OpenOptions(st.path, sirendb.Options{})
	if err != nil {
		return err
	}
	sp := tr.begin("postprocess.consolidate", 0)
	recs, _ := postprocess.ConsolidateSnapshot(db.Snapshot(), postprocess.StreamOptions{})
	layer["postprocess.consolidate_ms"] = ms(sp.end())
	sp = tr.begin("analysis.index_build", 0)
	analysis.NewFingerprintIndex(recs)
	layer["analysis.index_build_ms"] = ms(sp.end())
	return db.Close()
}

package main

import (
	"encoding/json"

	"siren/internal/obs"
	"siren/internal/postprocess"
)

// perLayer declares every metric a traced run prints, in BENCHMARK.json
// order. A workload that does not exercise a layer reports 0 for it. A
// workload figure whose name is declared here is reported under it.
var perLayer = []struct{ name, unit string }{
	{"gen.late_max_ms", "ms"},
	{"delivered_frac", "frac"},
	{"live_identify_p50_us", "us"},
	{"identify_top1_frac", "frac"},
	{"wire_bytes_per_proc", "B"},
	{"wire.send_p50_us", "us"},
	{"wire.send_p99_us", "us"},
	{"wire.parse_ns", "ns"},
	{"receiver.queue_depth_max", "count"},
	{"receiver.dropped", "count"},
	{"receiver.inserted", "count"},
	{"sirendb.seal_p50_ms", "ms"},
	{"sirendb.seal_max_ms", "ms"},
	{"catalog.refresh_p50_ms", "ms"},
	{"catalog.refresh_p95_ms", "ms"},
	{"catalog.reconsolidated_frac", "frac"},
	{"sirendb.open_ms", "ms"},
	{"catalog.first_refresh_ms", "ms"},
	{"postprocess.consolidate_ms", "ms"},
	{"analysis.index_build_ms", "ms"},
	{"analysis.search_known_us", "us"},
	{"analysis.search_unknown_us", "us"},
	{"server.overhead_us", "us"},
	{"collector.scan_us", "us"},
	{"ssdeep.hash_mb_s", "MB/s"},
	{"apps.install_ms", "ms"},
	{"obs.ingest_parse_p50_ns", "ns"},
	{"obs.ingest_parse_p99_ns", "ns"},
	{"obs.ingest_queue_wait_p50_ns", "ns"},
	{"obs.ingest_queue_wait_p99_ns", "ns"},
	{"obs.ingest_insert_p50_ns", "ns"},
	{"obs.ingest_insert_p99_ns", "ns"},
	{"obs.wal_fdatasync_p50_ns", "ns"},
	{"obs.wal_fdatasync_p99_ns", "ns"},
	{"obs.seal_phase_write-runs_p50_ns", "ns"},
	{"obs.seal_phase_write-runs_p99_ns", "ns"},
	{"obs.seal_phase_commit_p50_ns", "ns"},
	{"obs.seal_phase_commit_p99_ns", "ns"},
	{"obs.seal_phase_truncate_p50_ns", "ns"},
	{"obs.seal_phase_truncate_p99_ns", "ns"},
	{"obs.seal_phase_attach_p50_ns", "ns"},
	{"obs.seal_phase_attach_p99_ns", "ns"},
	{"self.wire_ms", "ms"},
	{"self.sirendb_ms", "ms"},
	{"self.catalog_ms", "ms"},
	{"self.server_ms", "ms"},
	{"self.analysis_ms", "ms"},
	{"self.postprocess_ms", "ms"},
	{"self.collector_ms", "ms"},
	{"self.ssdeep_ms", "ms"},
	{"self.apps_ms", "ms"},
	{"self.campaign_ms", "ms"},
	{"self.restart_ms", "ms"},
	{"trace.spans", "count"},
	{"trace.overhead_cpu_us_per_op_pct", "%"},
	{"trace.overhead_p50_ms_pct", "%"},
}

func declared(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return true
		}
	}
	return false
}

// addObs copies the p50/p99 of the receiver's and store's own histograms
// (the stages that have no public call boundary) into layer. Histograms
// that were never registered read as empty.
func addObs(layer map[string]float64, reg *obs.Registry) {
	hist := func(key, name string, labels ...obs.Label) {
		s := reg.Histogram(name, "", labels...).Snapshot()
		if s.Count == 0 {
			return
		}
		layer["obs."+key+"_p50_ns"] = float64(s.P50)
		layer["obs."+key+"_p99_ns"] = float64(s.P99)
	}
	hist("ingest_parse", "siren_ingest_parse_ns")
	hist("ingest_queue_wait", "siren_ingest_queue_wait_ns")
	hist("ingest_insert", "siren_ingest_insert_ns")
	hist("wal_fdatasync", "siren_wal_fdatasync_ns")
	for _, phase := range []string{"write-runs", "commit", "truncate", "attach"} {
		hist("seal_phase_"+phase, "siren_seal_phase_ns", obs.L("phase", phase))
	}
}

// render is the canonical byte form of a consolidated report: records in
// postprocess order plus the consolidation stats.
func render(recs []*postprocess.ProcessRecord, stats postprocess.Stats) ([]byte, error) {
	sorted := append([]*postprocess.ProcessRecord(nil), recs...)
	postprocess.SortRecords(sorted)
	return json.Marshal(struct {
		Records []*postprocess.ProcessRecord
		Stats   postprocess.Stats
	}{sorted, stats})
}

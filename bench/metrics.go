package main

// metricDef declares one metric the benchmark emits. The same list is
// written in BENCHMARK.json (a test holds the two equal); -compare reads the
// direction and the regression bound from here.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline by which it may worsen
}

// endToEnd are the metrics a voter or an election official sees. Every
// workload reports every one of them, from the plain (untraced) run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"votes_per_s", "1/s", "higher", 0.10},
	{"vote_p50_ms", "ms", "lower", 0.20},
	{"vote_p95_ms", "ms", "lower", 0.25},
	{"close_to_outcome_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, named <layer>.<metric>, from
// the traced run. A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"ea.setup_s", "s", "lower", 0},
	{"ea.ballots_per_s", "1/s", "higher", 0},

	{"store.build_s", "s", "lower", 0},
	{"store.gets_per_vote", "count", "lower", 0},
	{"store.get_us_p50", "us", "lower", 0},
	{"store.get_us_p99", "us", "lower", 0},
	{"store.hit_rate", "ratio", "higher", 0},
	{"store.shared_frac", "ratio", "higher", 0},
	{"store.evictions", "count", "lower", 0},

	{"httpapi.handler_ms_p50", "ms", "lower", 0},
	{"httpapi.overhead_us_p50", "us", "lower", 0},

	{"vc.endorse_ms_avg", "ms", "lower", 0},
	{"vc.vote_ms_avg", "ms", "lower", 0},
	{"vc.bad_messages", "count", "lower", 0},
	{"vc.send_errors", "count", "lower", 0},
	{"vc.strict_refusals", "count", "lower", 0},

	{"sig.sign_us", "us", "lower", 0},
	{"sig.verify_us", "us", "lower", 0},
	{"sig.verify_many_us_per_item", "us", "lower", 0},

	{"wire.encode_votep_ns", "ns", "lower", 0},
	{"wire.decode_votep_ns", "ns", "lower", 0},
	{"wire.decode_votep_allocs", "count", "lower", 0},
	{"wire.split_batch_ns_per_frame", "ns", "lower", 0},

	{"transport.frames_per_vote", "count", "lower", 0},
	{"transport.bytes_per_vote", "B", "lower", 0},

	{"journal.records_per_vote", "count", "lower", 0},
	{"journal.errors", "count", "lower", 0},
	{"journal.snapshots", "count", "lower", 0},
	{"journal.disk_bytes_per_vote", "B", "lower", 0},
	{"journal.append_us_p50", "us", "lower", 0},
	{"journal.appends_per_s", "1/s", "higher", 0},
	{"journal.recover_ms", "ms", "lower", 0},
	{"journal.replay_records_per_s", "1/s", "higher", 0},

	{"consensus.phase_s", "s", "lower", 0},
	{"consensus.node_max_s", "s", "lower", 0},
	{"consensus.node_spread_s", "s", "lower", 0},
	{"consensus.frames", "count", "lower", 0},
	{"consensus.bytes_per_ballot", "B", "lower", 0},

	{"bb.push_s", "s", "lower", 0},
	{"bb.cast_s", "s", "lower", 0},
	{"bb.publish_s", "s", "lower", 0},
	{"bb.post_submit_s", "s", "lower", 0},
	{"bb.combine_s", "s", "lower", 0},
	{"bb.combine_attempts", "count", "lower", 0},
	{"bb.batch_fallbacks", "count", "lower", 0},
	{"bb.result_wait_s", "s", "lower", 0},
	{"bb.journal_records", "count", "lower", 0},

	{"trustee.compute_s_max", "s", "lower", 0},
	{"trustee.compute_s_sum", "s", "lower", 0},

	{"auditor.audit_s", "s", "lower", 0},
	{"auditor.ballots_per_s", "1/s", "higher", 0},
	{"auditor.packages_checked", "count", "higher", 0},

	{"process.cpu_ms_per_vote", "ms", "lower", 0},
	{"process.cpu_util", "ratio", "lower", 0},
	{"process.allocs_per_vote", "count", "lower", 0},
	{"process.alloc_kb_per_vote", "KiB", "lower", 0},
	{"process.gc_pause_ms", "ms", "lower", 0},
	{"process.peak_heap_mb", "MiB", "lower", 0},

	{"loadgen.max_start_lag_ms", "ms", "lower", 0},
	{"loadgen.lag_flagged", "count", "lower", 0},
	{"loadgen.vote_tail_ms", "ms", "lower", 0},
	{"loadgen.achieved_per_s_r150", "1/s", "higher", 0},
	{"loadgen.achieved_per_s_r300", "1/s", "higher", 0},
	{"loadgen.vote_p50_ms_r150", "ms", "lower", 0},
	{"loadgen.vote_p50_ms_r300", "ms", "lower", 0},
	{"loadgen.vote_tail_ms_r150", "ms", "lower", 0},
	{"loadgen.vote_tail_ms_r300", "ms", "lower", 0},
	{"loadgen.max_rate_ok", "1/s", "higher", 0},
	{"loadgen.sat_votes_per_s", "1/s", "higher", 0},
	{"loadgen.sat_p50_ms", "ms", "lower", 0},
	{"loadgen.sat_tail_ms", "ms", "lower", 0},

	{"trace.overhead_frac", "ratio", "lower", 0},
	{"trace.spans", "count", "lower", 0},
}

// metricValue is one emitted measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newMetricSet returns every declared metric at 0, so a run emits exactly
// the declared names whichever layers it exercised.
func newMetricSet(defs []metricDef) map[string]metricValue {
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		m[d.Name] = metricValue{Unit: d.Unit}
	}
	return m
}

// set stores a declared metric's value; an undeclared name is a bug in the
// benchmark, caught by the smoke test.
func set(m map[string]metricValue, name string, v float64) {
	mv, ok := m[name]
	if !ok {
		panic("bench: metric " + name + " is not declared")
	}
	mv.Value = v
	m[name] = mv
}

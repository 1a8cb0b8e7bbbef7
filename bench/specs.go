package main

import "sunstone/internal/obs"

// metricSpec declares one metric of BENCHMARK.json. The tables below are
// the harness's copy of that file; a test keeps the two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the share the median may worsen by
}

// endToEndSpecs are the metrics a user of the library or of sunstoned sees.
// Every workload reports every one of them.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"solve_geomean_ms", "ms", "lower", 0.10},
	{"solve_slowest_ms", "ms", "lower", 0.10},
	{"solves_per_s", "1/s", "higher", 0.10},
	{"submit_ack_p50_ms", "ms", "lower", 0.10},
	{"submit_ack_p90_ms", "ms", "lower", 0.15},
	{"first_incumbent_p50_ms", "ms", "lower", 0.10},
	{"first_incumbent_p90_ms", "ms", "lower", 0.15},
	{"terminal_p50_ms", "ms", "lower", 0.10},
	{"terminal_p90_ms", "ms", "lower", 0.15},
	// Deterministic: any increase is a quality regression. The bound is
	// one part in 10⁹ rather than 0 only so that "within the bound" holds
	// whichever way a checker writes the comparison.
	{"edp_geomean", "J.cycles", "lower", 1e-9},
}

// srvCounters are the service counters of Server.Stats reported as they are.
var srvCounters = []string{
	obs.CtrSrvAdmitted, obs.CtrSrvDone, obs.CtrSrvFailed, obs.CtrSrvCanceled,
	obs.CtrSrvShedTenant, obs.CtrSrvShedQueue, obs.CtrSrvShedDrain,
	obs.CtrSrvWatchdog, obs.CtrSrvPanics, obs.CtrSrvRecovered,
	obs.CtrSrvIdemHit, obs.CtrSrvCheckpoint,
}

// perLayer are the metrics of single layers, from the traced run. The
// prefix is the module under internal/ (srv.* are the server's own counter
// names; proc.* is the traced process).
var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{Name: "order.enumerate_us", Unit: "us", Better: "lower"},
		{Name: "order.kept", Unit: "count", Better: "lower"},
		{Name: "order.pruned_share", Unit: "ratio", Better: "higher"},
		{Name: "tile.enumerate_us", Unit: "us", Better: "lower"},
		{Name: "tile.nodes_visited", Unit: "count", Better: "lower"},
		{Name: "tile.survivor_share", Unit: "ratio", Better: "higher"},
		{Name: "unroll.enumerate_us", Unit: "us", Better: "lower"},
		{Name: "unroll.nodes_visited", Unit: "count", Better: "lower"},
		{Name: "unroll.survivor_share", Unit: "ratio", Better: "higher"},
		{Name: "analytic.seed_us", Unit: "us", Better: "lower"},
		{Name: "analytic.seed_gap", Unit: "ratio", Better: "lower"},
		{Name: "cost.session_build_us", Unit: "us", Better: "lower"},
		{Name: "cost.eval_uncached_ns", Unit: "ns", Better: "lower"},
		{Name: "cost.eval_cached_ns", Unit: "ns", Better: "lower"},
		{Name: "cost.report_us", Unit: "us", Better: "lower"},
		{Name: "cost.lower_bound_ns", Unit: "ns", Better: "lower"},
		{Name: "cost.eval_allocs", Unit: "count", Better: "lower"},
		{Name: "cost.report_allocs", Unit: "count", Better: "lower"},
		{Name: "cost.cache_hit_share", Unit: "ratio", Better: "higher"},
		{Name: "cost.eval_time_share", Unit: "ratio", Better: "lower"},
		{Name: "core.key_us", Unit: "us", Better: "lower"},
		{Name: "core.compile_ms", Unit: "ms", Better: "lower"},
		{Name: "core.solve_cold_ms", Unit: "ms", Better: "lower"},
		{Name: "core.search_ms", Unit: "ms", Better: "lower"},
		{Name: "core.solve_warm_ms", Unit: "ms", Better: "lower"},
		{Name: "core.warm_speedup", Unit: "ratio", Better: "higher"},
		{Name: "core.solve_t1_ms", Unit: "ms", Better: "lower"},
		{Name: "core.speedup_threads", Unit: "ratio", Better: "higher"},
		{Name: "core.first_incumbent_ms", Unit: "ms", Better: "lower"},
		{Name: "core.anytime_gap_b25", Unit: "ratio", Better: "lower"},
		{Name: "core.anytime_gap_b50", Unit: "ratio", Better: "lower"},
		{Name: "core.generated", Unit: "count", Better: "lower"},
		{Name: "core.evaluated", Unit: "count", Better: "lower"},
		{Name: "core.evaluated_share", Unit: "ratio", Better: "lower"},
		{Name: "core.pruned_ordering", Unit: "count", Better: "higher"},
		{Name: "core.pruned_tiling", Unit: "count", Better: "higher"},
		{Name: "core.pruned_unrolling", Unit: "count", Better: "higher"},
		{Name: "core.bound_pruned", Unit: "count", Better: "higher"},
		{Name: "core.deduped", Unit: "count", Better: "higher"},
		{Name: "core.pruned_beam", Unit: "count", Better: "higher"},
		{Name: "core.allocs_per_solve", Unit: "count", Better: "lower"},
		{Name: "core.alloc_mb_per_solve", Unit: "MB", Better: "lower"},
		{Name: "core.allocs_per_warm_solve", Unit: "count", Better: "lower"},
		{Name: "core.engine_compiles", Unit: "count", Better: "lower"},
		{Name: "core.engine_hit_share", Unit: "ratio", Better: "higher"},
		{Name: "core.span.orderings_ms", Unit: "ms", Better: "lower"},
		{Name: "core.span.enumerate_ms", Unit: "ms", Better: "lower"},
		{Name: "core.span.evaluate_ms", Unit: "ms", Better: "lower"},
		{Name: "core.span.polish_ms", Unit: "ms", Better: "lower"},
		{Name: "core.span.other_ms", Unit: "ms", Better: "lower"},
		{Name: "core.fusion.schedule_ms", Unit: "ms", Better: "lower"},
		{Name: "core.fusion.dp_self_ms", Unit: "ms", Better: "lower"},
		{Name: "core.fusion.groups_considered", Unit: "count", Better: "lower"},
		{Name: "core.fusion.groups_pruned", Unit: "count", Better: "higher"},
		{Name: "core.fusion.groups_infeasible", Unit: "count", Better: "lower"},
		{Name: "core.fusion.member_dedupe_share", Unit: "ratio", Better: "higher"},
		{Name: "core.fusion.edp_gain", Unit: "ratio", Better: "higher"},
		{Name: "network.build_us", Unit: "us", Better: "lower"},
		{Name: "serde.encode_mapping_us", Unit: "us", Better: "lower"},
		{Name: "serde.decode_mapping_us", Unit: "us", Better: "lower"},
		{Name: "serde.encode_checkpoint_us", Unit: "us", Better: "lower"},
		{Name: "serde.decode_workload_us", Unit: "us", Better: "lower"},
		{Name: "serde.mapping_bytes", Unit: "bytes", Better: "lower"},
		{Name: "server.submit_handler_us", Unit: "us", Better: "lower"},
		{Name: "server.status_handler_us", Unit: "us", Better: "lower"},
		{Name: "server.statz_handler_us", Unit: "us", Better: "lower"},
		{Name: "server.idle_terminal_ms", Unit: "ms", Better: "lower"},
		{Name: "server.tax_ms", Unit: "ms", Better: "lower"},
		{Name: "server.queue_wait_mean_ms", Unit: "ms", Better: "lower"},
		{Name: "server.run_mean_ms", Unit: "ms", Better: "lower"},
		{Name: "server.sse_frames_per_job", Unit: "count", Better: "lower"},
		{Name: "server.shed_share", Unit: "ratio", Better: "lower"},
		{Name: "server.fallback_share", Unit: "ratio", Better: "lower"},
		{Name: "server.jobs_per_s", Unit: "1/s", Better: "higher"},
		{Name: "server.submit_ack_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "server.first_incumbent_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "server.terminal_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "journal.append_never_us", Unit: "us", Better: "lower"},
		{Name: "journal.append_interval_us", Unit: "us", Better: "lower"},
		{Name: "journal.append_always_us", Unit: "us", Better: "lower"},
		{Name: "journal.append_durable_us", Unit: "us", Better: "lower"},
		{Name: "journal.fsyncs_per_job", Unit: "count", Better: "lower"},
		{Name: "journal.bytes_per_job", Unit: "bytes", Better: "lower"},
		{Name: "journal.compactions", Unit: "count", Better: "lower"},
		{Name: "journal.append_errors", Unit: "count", Better: "lower"},
		{Name: "journal.replay_ms", Unit: "ms", Better: "lower"},
		{Name: "exec.verify_ms", Unit: "ms", Better: "lower"},
		{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
		{Name: "proc.cpu_s", Unit: "s", Better: "lower"},
		{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
		{Name: "obs.trace_overhead_share", Unit: "ratio", Better: "lower"},
	}
	for _, name := range srvCounters {
		better := "lower"
		if name == obs.CtrSrvAdmitted || name == obs.CtrSrvDone {
			better = "higher"
		}
		specs = append(specs, metricSpec{Name: name, Unit: "count", Better: better})
	}
	return specs
}()

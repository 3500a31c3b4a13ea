package main

import (
	"encoding/json"
	"strings"
)

// The catalog is the single source of every name the benchmark reports:
// BENCHMARK.json is generated from it (-manifest) and a test pins the
// committed file to it.

// runSeconds is how long one run's timed phase measures by default.
const runSeconds = 30

// e2eMetric is an end-to-end metric: what a user of the system sees.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerMetric is a per-module metric from the traced run. Module is the
// package the number belongs to; it is the name's prefix before the
// first dot and is not written to BENCHMARK.json.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Module string `json:"-"`
}

// e2eMetrics are reported by every workload with tracing off. Two
// end-to-end figures stay in the text report only: failed_frac reads 0
// on every correct run (it travels as the result's failed/attempted
// pair), and error_pct spreads across seeds by the estimators' own
// variance, beyond any bound a regression gate could use.
//
// Bounds: on a shared two-core VM, identical inputs in one process
// repeat their wall times only within about ±15%, and ten seeds spread
// the timings by 3–30% of their median, so timings take the widest
// bound allowed; peak RSS follows GC pacing (up to 17% on churn-monitor).
// Message and allocation counts are exact for a seed and spread under 2%
// across seeds.
var e2eMetrics = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "op/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"msgs_per_op", "msgs", "lower", 0.1},
	{"alloc_mb_per_op", "MB", "lower", 0.1},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// estimatorModules are the one-shot estimator families static-estimate
// runs, in the Table I order one op calls them.
var estimatorModules = []string{"samplecollide", "hopssampling", "randomtour", "capturerecapture", "dhtext", "polling"}

// gossipModules are the round-based families gossip-rounds drives.
var gossipModules = []string{"aggregation", "pushsum", "cyclon"}

func layerMetrics() []layerMetric {
	var out []layerMetric
	add := func(name, unit, better string) {
		out = append(out, layerMetric{name, unit, better, name[:strings.IndexByte(name, '.')]})
	}
	for _, m := range estimatorModules {
		add(m+".estimate_ms_p50", "ms", "lower")
		add(m+".msgs_per_estimate", "msgs", "lower")
		add(m+".ns_per_msg", "ns", "lower")
		add(m+".error_pct", "%", "lower")
	}
	add("graph.build_s", "s", "lower")
	add("graph.random_neighbor_ns", "ns", "lower")
	add("overlay.send_ns", "ns", "lower")
	add("xrand.intn_ns", "ns", "lower")
	for _, m := range gossipModules {
		add(m+".round_ms_p50", "ms", "lower")
		add(m+".alloc_bytes_per_round", "bytes", "lower")
		add(m+".allocs_per_round", "count", "lower")
	}
	for _, m := range gossipModules {
		add("parallel.speedup."+m, "x", "higher")
	}
	add("cyclon.bytes_per_node", "bytes", "lower")
	add("trace.generate_s", "s", "lower")
	add("trace.advance_ms_p50", "ms", "lower")
	add("trace.events_per_s", "1/s", "higher")
	add("graph.clone_cow_us", "us", "lower")
	add("graph.owned_page_frac", "ratio", "lower")
	add("monitor.estimate_s", "s", "lower")
	add("monitor.self_s", "s", "lower")
	add("monitor.groups", "count", "lower")
	add("transport.frames_per_s", "1/s", "higher")
	add("transport.retransmits", "count", "lower")
	add("transport.errors", "count", "lower")
	add("transport.delivery_ratio", "ratio", "higher")
	add("transport.rpc_us_p50", "us", "lower")
	add("transport.rpc_us_p90", "us", "lower")
	add("transport.encode_ns", "ns", "lower")
	add("transport.decode_ns", "ns", "lower")
	add("transport.frame_bytes", "bytes", "lower")
	add("cluster.bootstrap_s", "s", "lower")
	add("bench.untraced_ops_per_s", "op/s", "higher")
	add("bench.traced_ops_per_s", "op/s", "higher")
	add("bench.tracing_overhead_pct", "%", "lower")
	return out
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []e2eMetric        `json:"end_to_end"`
	PerLayer   []layerMetric      `json:"per_layer"`
}

// manifestJSON renders BENCHMARK.json.
func manifestJSON() ([]byte, error) {
	m := manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   e2eMetrics,
		PerLayer:   layerMetrics(),
	}
	for _, w := range workloads {
		if w.gated {
			m.Workloads = append(m.Workloads, manifestWorkload{w.name, w.why})
		}
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

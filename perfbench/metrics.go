package main

import (
	_ "embed"
	"encoding/json"
)

// metricDef names one reported metric and fixes its unit. The two tables
// below are the benchmark's vocabulary: BENCHMARK.json lists the same
// names, and the self-test holds the two in step.
type metricDef struct{ name, unit string }

// e2eMetrics are measured with tracing off. Every workload reports every
// one of them; README.md gives the per-workload meaning.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_op", "us/op"},
	{"max_rss_mb", "MB"},
	{"msgs_per_peer", "msgs/peer"},
	{"bytes_per_peer", "bytes/peer"},
	{"coverage", "fraction"},
	{"fresh_fraction", "fraction"},
	{"install_ms", "ms"},
}

// cpuBuckets are the packages a CPU profile's self samples are bucketed
// into (see profile.go); "other" takes the rest.
var cpuBuckets = []string{
	"core", "sim", "p2p", "liveness", "wire", "topology", "saintetiq",
	"summarystore", "query", "routing", "gateway", "runtime", "net", "other",
}

// layerMetrics come from the traced pass. A layer a workload does not
// exercise reads 0.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"topology.hops_calls", "count"},
		{"topology.hops_s", "s"},
		{"topology.walk_calls", "count"},
		{"topology.walk_s", "s"},
		{"core.handler_calls", "count"},
		{"core.handler_self_s", "s"},
		{"core.timer_calls", "count"},
		{"core.timer_self_s", "s"},
		{"core.entry_calls", "count"},
		{"core.entry_self_s", "s"},
		{"core.reconciliations", "count"},
		{"core.find_walks", "count"},
		{"core.pushes", "count"},
		{"p2p.send_calls", "count"},
		{"p2p.send_s", "s"},
		{"p2p.bytes_per_send", "bytes"},
		{"p2p.tcp_units_per_flush", "units/flush"},
		{"p2p.tcp_bytes", "bytes"},
		{"sim.events", "count"},
		{"sim.events_per_msg", "events/msg"},
		{"sim.self_s", "s"},
		{"liveness.suspicions", "count"},
		{"gateway.hit_rate", "fraction"},
		{"gateway.coalesced", "count"},
		{"gateway.invalidated", "count"},
		{"gateway.shed", "count"},
		{"gateway.exec_calls", "count"},
		{"gateway.exec_p50_us", "us"},
		{"build.refresh_p50_ms", "ms"},
		{"build.refresh_p99_ms", "ms"},
		{"churn.slice_p50_ms", "ms"},
		{"churn.slice_p99_ms", "ms"},
		{"serve.p50_ms", "ms"},
		{"serve.p99_ms", "ms"},
		{"serve.capacity_ops", "ops/s"},
		{"serve.batch_s", "s"},
		{"serve.hit_p50_us", "us"},
		{"serve.miss_p50_us", "us"},
		{"serve.late_p99_us", "us"},
		{"serve.install_loaded_ms", "ms"},
		{"runtime.gc_cpu_s", "s"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.allocs", "count"},
	}
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{"cpu." + b, "fraction"})
	}
	return append(defs,
		metricDef{"trace.untraced_wall_s", "s"},
		metricDef{"trace.traced_wall_s", "s"},
		metricDef{"trace.untraced_p50_ms", "ms"},
		metricDef{"trace.traced_p50_ms", "ms"},
		metricDef{"trace.overhead", "ratio"},
	)
}()

// defaultSeed is the seed whose report hashes reference.json records.
const defaultSeed = 1

//go:embed reference.json
var referenceJSON []byte

// checkHashes compares a deterministic workload's per-pass report hashes
// with those recorded for the default seed; a traced run, which makes
// fewer passes, compares a prefix.
func checkHashes(r *report, o opts, workload string, hashes []string) {
	if o.seed != defaultSeed {
		return
	}
	key := workload
	if o.small {
		key += "/small"
	}
	var refs map[string][]string
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		r.check(false, "reference.json: %v", err)
		return
	}
	want, ok := refs[key]
	if !ok || len(want) < len(hashes) {
		r.check(false, "reference.json has no hashes for %q (this run's: %q)", key, hashes)
		return
	}
	for i, h := range hashes {
		r.check(h == want[i], "%s: pass %d report hash %s differs from the reference %s recorded for seed %d",
			workload, i, h, want[i], defaultSeed)
	}
}

package main

import (
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit. The end-to-end and
// per-layer catalogues below are the benchmark's interface: BENCHMARK.json
// lists exactly these names (bench_test.go checks it), every workload
// reports every end-to-end metric with --trace 0 and every per-layer
// metric with --trace 1.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees. Each workload
// maps them onto its own operations; see README.md. No tail percentile
// is among them: on the 2-core shared host the benchmark was built on,
// no read or write percentile above the median repeated within the
// bounds on every workload, so tails are printed for people instead.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"read_p50_ms", "ms"},
	{"count_p50_ms", "ms"},
	{"find_p50_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"read_qps_max", "1/s"},
	{"restart_s", "s"},
	{"index_bits_per_symbol", "bits"},
	{"heap_mb", "MB"},
	{"ok_frac", "frac"},
}

// perLayer are the traced run's per-layer metrics. A layer a workload
// does not exercise reports 0.
var perLayer = []metricDef{
	{"server.frontend.count.self_us", "us"},
	{"server.frontend.find.self_us", "us"},
	{"server.frontend.search.self_us", "us"},
	{"server.frontend.insert.self_us", "us"},
	{"server.frontend.backend_calls_per_op", "count"},
	{"server.frontend.hedges_per_kop", "count"},
	{"server.frontend.hedge_wins_per_kop", "count"},
	{"server.frontend.retries_per_kop", "count"},
	{"server.backend.count.self_us", "us"},
	{"server.backend.find.self_us", "us"},
	{"server.backend.search.self_us", "us"},
	{"server.backend.insert.self_us", "us"},
	{"server.backend.delete.self_us", "us"},
	{"dyncoll.Count.p50_us", "us"},
	{"dyncoll.FindLimit.p50_us", "us"},
	{"dyncoll.Search.p50_us", "us"},
	{"dyncoll.Extract.p50_us", "us"},
	{"dyncoll.InsertBatch.p50_us", "us"},
	{"dyncoll.DeleteBatch.p50_us", "us"},
	{"dyncoll.Count.busy_s", "s"},
	{"dyncoll.FindLimit.busy_s", "s"},
	{"dyncoll.Search.busy_s", "s"},
	{"dyncoll.Extract.busy_s", "s"},
	{"dyncoll.InsertBatch.busy_s", "s"},
	{"dyncoll.DeleteBatch.busy_s", "s"},
	{"dyncoll.count_over_static", "ratio"},
	{"query.compile_us", "us"},
	{"query.scan_fallback_frac", "frac"},
	{"engine.stores_per_query", "count"},
	{"engine.tops_max", "count"},
	{"engine.levels_max", "count"},
	{"engine.pending_builds_max", "count"},
	{"engine.rebuilds", "count"},
	{"engine.global_rebuilds", "count"},
	{"fmindex.range_us", "us"},
	{"fmindex.build_ns_per_symbol", "ns"},
	{"wal.InsertBatch.p50_us", "us"},
	{"wal.DeleteBatch.p50_us", "us"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"wal.recovery_s", "s"},
	{"wal.replayed_records", "count"},
	{"wal.checkpoint_loaded", "count"},
	{"binrel.Neighbors.p50_us", "us"},
	{"binrel.ReverseNeighbors.p50_us", "us"},
	{"binrel.OutDegree.p50_us", "us"},
	{"binrel.InDegree.p50_us", "us"},
	{"binrel.AddEdge.p50_us", "us"},
	{"binrel.DeleteEdge.p50_us", "us"},
	{"client.count.self_us", "us"},
	{"client.regex.p50_us", "us"},
	{"client.topk.p50_us", "us"},
	{"client.queue_wait_p50_us", "us"},
	{"loadgen.lag_p99_us", "us"},
	{"loadgen.repeat_frac", "frac"},
	{"trace.count_attributed_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// quantile returns the q-quantile of xs by the nearest-rank rule. xs is
// sorted in place. A failed operation is recorded as +Inf, so it counts
// as missing every latency limit.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// median of a small sample (several set-ups or restarts in one run).
func median(xs []float64) float64 {
	return quantile(slices.Clone(xs), 0.5)
}

// samples collects durations in milliseconds per operation class or
// layer call, safe for concurrent recorders.
type samples struct {
	mu sync.Mutex
	by map[string][]float64
}

func newSamples() *samples { return &samples{by: make(map[string][]float64)} }

func (s *samples) add(class string, d time.Duration) {
	s.addValue(class, float64(d)/1e6)
}

// fail records a failed operation of the class: it counts as an
// infinitely late reply.
func (s *samples) fail(class string) { s.addValue(class, math.Inf(1)) }

func (s *samples) addValue(class string, ms float64) {
	s.mu.Lock()
	s.by[class] = append(s.by[class], ms)
	s.mu.Unlock()
}

func (s *samples) pooled(classes []string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var all []float64
	for _, c := range classes {
		all = append(all, s.by[c]...)
	}
	return all
}

// quantileOf pools the listed classes and returns their q-quantile in
// milliseconds; an infinite quantile (most operations failed) reads as
// a large finite number so the JSON stays valid.
func (s *samples) quantileOf(q float64, classes ...string) float64 {
	if v := quantile(s.pooled(classes), q); !math.IsInf(v, 1) {
		return v
	}
	return 1e9
}

func (s *samples) count(classes ...string) int { return len(s.pooled(classes)) }

// sum totals the listed classes, in milliseconds.
func (s *samples) sum(classes ...string) float64 {
	t := 0.0
	for _, v := range s.pooled(classes) {
		t += v
	}
	return t
}

package main

import (
	"time"
)

// streams returns one operation stream per client goroutine, seeded.
type streams func(seed int64) func(w, i int) task

// phases is what the measured phases of a run produced.
type phases struct {
	open  *tally // open loop at the workload's fixed rate
	mixed *tally // closed loop over the workload's full mix
	lag   time.Duration
	qps   float64 // reads completed per second in the read-only closed loop
}

// measure runs the untraced phases of a run:
//
//   - 20% open loop: Poisson arrivals at the workload's fixed rate,
//     latencies timed from each operation's due time. It checks the
//     answers under independent arrivals and shows queueing, but its
//     latencies move with every hiccup of a shared host, so they are
//     printed for people rather than gated.
//   - 50% closed loop over the full mix with nproc callers, each
//     sending its next operation when the previous one returns (the
//     dyndocd client pool, or an application's goroutines calling the
//     graph): the latency metrics.
//   - 30% closed loop over the read mix alone: read_qps_max. A
//     read-only workload passes reads == nil; its mixed phase then runs
//     80% and gives the throughput too.
func measure(e *env, rate float64, mix, reads streams, total *tally) (*phases, error) {
	p := &phases{open: newTally(), mixed: newTally()}
	var err error
	p.lag, err = openLoop(rate, e.phase(0.2), e.conns, e.seed+11, mix(e.seed+100), p.open)
	total.merge(p.open)
	if err != nil {
		return nil, err
	}
	if reads == nil {
		p.qps = closedLoop(e.phase(0.8), e.conns, mix(e.seed+200), p.mixed)
		total.merge(p.mixed)
		return p, nil
	}
	closedLoop(e.phase(0.5), e.conns, mix(e.seed+200), p.mixed)
	total.merge(p.mixed)
	readOnly := newTally()
	p.qps = closedLoop(e.phase(0.3), e.conns, reads(e.seed+300), readOnly)
	total.merge(readOnly)
	return p, nil
}

// latencies fills the latency and throughput metrics from the phases;
// countClass and findClass name the workload's counting and listing
// reads. The tails and the open loop's latencies go to extra.
func (p *phases) latencies(res, extra map[string]float64, countClass, findClass string) {
	m := p.mixed.lat
	res["read_p50_ms"] = m.quantileOf(0.5, readClasses...)
	res["count_p50_ms"] = m.quantileOf(0.5, countClass)
	res["find_p50_ms"] = m.quantileOf(0.5, findClass)
	res["read_qps_max"] = p.qps
	if m.count(writeClasses...) > 0 {
		res["write_p50_ms"] = m.quantileOf(0.5, writeClasses...)
		extra["write_p99_ms"] = m.quantileOf(0.99, writeClasses...)
	}
	extra["read_p99_ms"] = m.quantileOf(0.99, readClasses...)
	extra["closed_ops"] = float64(p.mixed.attempted.Load())
	o := p.open.lat
	extra["open_read_p50_ms"] = o.quantileOf(0.5, readClasses...)
	extra["open_read_p99_ms"] = o.quantileOf(0.99, readClasses...)
	if o.count(writeClasses...) > 0 {
		extra["open_write_p50_ms"] = o.quantileOf(0.5, writeClasses...)
	}
	extra["open_ops"] = float64(p.open.attempted.Load())
	extra["generator_lag_p99_ms"] = float64(p.lag) / 1e6
}

// measureTraced is the traced run's measurement: a short open loop for
// the generator's lateness and the queueing wait, then the full-mix
// closed loop untraced and again traced (into the returned tally), so
// trace.overhead_frac compares like with like. onTrace runs right before
// and right after the traced half.
func measureTraced(e *env, rate float64, mix streams, tr *tracer, total *tally, L map[string]float64, onTrace func(start bool) error) (*tally, error) {
	open, untraced, traced := newTally(), newTally(), newTally()
	lag, err := openLoop(rate, e.phase(0.2), e.conns, e.seed+11, mix(e.seed+100), open)
	total.merge(open)
	if err != nil {
		return nil, err
	}
	closedLoop(e.phase(0.4), e.conns, mix(e.seed+200), untraced)
	total.merge(untraced)
	if err := onTrace(true); err != nil {
		return nil, err
	}
	tr.on.Store(true)
	closedLoop(e.phase(0.4), e.conns, mix(e.seed+200), traced)
	tr.on.Store(false)
	total.merge(traced)
	if err := onTrace(false); err != nil {
		return nil, err
	}
	L["client.queue_wait_p50_us"] = 1e3 * open.wait.quantileOf(0.5, "wait")
	L["loadgen.lag_p99_us"] = float64(lag) / 1e3
	L["trace.overhead_frac"] = traced.lat.quantileOf(0.5, readClasses...)/untraced.lat.quantileOf(0.5, readClasses...) - 1
	return traced, nil
}

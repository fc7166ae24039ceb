package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is what one executed operation reports back to the load
// generator.
type outcome struct {
	class string // latency class: count, find, regex, topk, extract, insert, delete, neighbors, …
	write bool
	err   error // the system failed or refused the operation
	wrong error // the system answered, but the oracle disagrees
	// sent and done bracket the call into the system when the task sets
	// them, so harness work before and after (oracle checks) is not
	// counted; zero means the task's whole run.
	sent, done time.Time
}

// task is one generated operation, ready to run.
type task func() outcome

// tally accumulates every operation of a phase: latencies per class,
// failures, and oracle mismatches.
type tally struct {
	lat       *samples // per class, ms; from the due time in an open loop
	wait      *samples // "wait": ms between the due time and the send
	attempted atomic.Int64
	failed    atomic.Int64

	mu     sync.Mutex
	wrongN int64
	wrong  []string // the first few mismatches, for the report
}

func newTally() *tally { return &tally{lat: newSamples(), wait: newSamples()} }

func (t *tally) record(o outcome, due, sent, done time.Time) {
	if !o.sent.IsZero() {
		sent, done = o.sent, o.done
		if due.After(sent) { // closed loop: due is the send time
			due = sent
		}
	}
	t.attempted.Add(1)
	t.wait.add("wait", sent.Sub(due))
	if o.err != nil {
		t.failed.Add(1)
		t.lat.fail(o.class)
		return
	}
	t.lat.add(o.class, done.Sub(due))
	if o.wrong != nil {
		t.noteWrong(fmt.Errorf("%s: %w", o.class, o.wrong))
	}
}

func (t *tally) noteWrong(err error) {
	if err == nil {
		return
	}
	t.mu.Lock()
	t.wrongN++
	if len(t.wrong) < 5 {
		t.wrong = append(t.wrong, err.Error())
	}
	t.mu.Unlock()
}

// merge folds another phase's counts (not latencies) into t.
func (t *tally) merge(o *tally) {
	t.attempted.Add(o.attempted.Load())
	t.failed.Add(o.failed.Load())
	o.mu.Lock()
	n, w := o.wrongN, append([]string(nil), o.wrong...)
	o.mu.Unlock()
	t.mu.Lock()
	t.wrongN += n
	for _, s := range w {
		if len(t.wrong) < 5 {
			t.wrong = append(t.wrong, s)
		}
	}
	t.mu.Unlock()
}

// maxLagP99 is the generator lateness beyond which an open-loop phase
// is invalid: the schedule the latencies are measured against was not
// kept. Lateness is part of every open-loop latency anyway; the gate
// only rejects a schedule that no longer means anything. On a 2-vCPU
// host whose CPUs the system under test keeps busy (rebuilds, fsync),
// idle workers woke up to 25 ms late at p99 over ten-run sets, so the
// bound sits well above that. It is judged over at least minLagSamples
// wake-ups, so a single host stall in a tiny test run is not a p99.
const (
	maxLagP99     = 100 * time.Millisecond
	minLagSamples = 100
)

// drainGrace bounds how long an overloaded phase may run past its end
// to send operations that were already due; the rest count as failed.
const drainGrace = 5 * time.Second

// openLoop sends operations at Poisson arrival times of the given total
// rate for dur and times every operation from when it was due. Each of
// the `workers` client goroutines (the connection cap) owns an
// independent Poisson schedule of rate/workers and its own operation
// stream next(w, i), so the inputs depend only on the seed and no
// hand-off between goroutines delays a send. An operation due while its
// worker is still busy waits, and that wait is part of its latency.
// The generator lateness is how late an idle worker woke for a due
// operation.
func openLoop(rate float64, dur time.Duration, workers int, seed int64, next func(w, i int) task, t *tally) (lagP99 time.Duration, err error) {
	var wg sync.WaitGroup
	lags := make([][]float64, workers)
	start := time.Now()
	end := start.Add(dur)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*7919))
			at := 0.0
			for i := 0; ; i++ {
				at += rng.ExpFloat64() * float64(workers) / rate
				due := start.Add(time.Duration(at * 1e9))
				if !due.Before(end) {
					return
				}
				run := next(w, i)
				if now := time.Now(); now.Before(due) {
					sleepUntil(due)
					lags[w] = append(lags[w], float64(time.Since(due)))
				} else if now.After(end.Add(drainGrace)) {
					t.attempted.Add(1)
					t.failed.Add(1)
					continue
				}
				sent := time.Now()
				o := run()
				t.record(o, due, sent, time.Now())
			}
		}(w)
	}
	wg.Wait()
	var all []float64
	for _, l := range lags {
		all = append(all, l...)
	}
	lagP99 = time.Duration(quantile(all, 0.99))
	if len(all) >= minLagSamples && lagP99 > maxLagP99 {
		return lagP99, fmt.Errorf("open loop invalid: generator p99 lateness %v exceeds %v", lagP99, maxLagP99)
	}
	return lagP99, nil
}

// closedLoop runs `workers` callers that each send their next operation
// as soon as the previous one returns, for dur, and returns the rate of
// completed operations. next(w, i) builds caller w's i-th operation.
func closedLoop(dur time.Duration, workers int, next func(w, i int) task, t *tally) float64 {
	var wg sync.WaitGroup
	var done atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				run := next(w, i)
				sent := time.Now()
				o := run()
				t.record(o, sent, sent, time.Now())
				if o.err == nil {
					done.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(start).Seconds()
}

// runAll executes n generated tasks over `workers` goroutines.
func runAll(n, workers int, next func(i int) task, t *tally) {
	jobs := make(chan task)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for run := range jobs {
				sent := time.Now()
				o := run()
				t.record(o, sent, sent, time.Now())
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- next(i)
	}
	close(jobs)
	wg.Wait()
}

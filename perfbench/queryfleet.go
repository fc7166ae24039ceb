package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dyncoll"
	"dyncoll/internal/server"
)

// queryFleet: read-only open loop over a frontend and 2 backends at
// R=1, each backend a 2-shard WorstCase collection with the FM index.
// Every read layer does its full work and no write, WAL or rebuild
// path runs during measurement.
var queryFleet = textParams{docs: 16000, pool: 400, replication: 1, rate: 150}

// Read mix of query-fleet (cumulative shares).
const (
	qfCount   = 0.35
	qfFind    = qfCount + 0.30
	qfRegex   = qfFind + 0.15
	qfTopK    = qfRegex + 0.15 // the rest extracts
	qfAbsent  = 0.10           // share of exact patterns drawn from the absent pool
	qfRegexes = 64
)

// queryGen draws query-fleet operations; one per goroutine.
type queryGen struct {
	r       *textRun
	o       *staticOracle
	rng     *rand.Rand
	zipf    *rand.Zipf // pool rank, hottest first
	pool    [][]byte
	absent  [][]byte
	regexes []regexQuery
	rep     *repeats // nil: not counted
}

// repeats measures the share of operations whose pattern was already
// sent in the phase.
type repeats struct {
	mu             sync.Mutex
	seen           map[string]bool
	drawn, repeats int
}

func newRepeats() *repeats { return &repeats{seen: map[string]bool{}} }

func (r *repeats) note(key string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.drawn++
	if r.seen[key] {
		r.repeats++
	}
	r.seen[key] = true
}

func (r *repeats) frac() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return float64(r.repeats) / float64(max(r.drawn, 1))
}

func (g *queryGen) next() task {
	cl, o := g.r.cl, g.o
	p := g.pool[g.zipf.Uint64()]
	if g.rng.Float64() < qfAbsent {
		p = g.absent[g.rng.Intn(len(g.absent))]
	}
	x := g.rng.Float64()
	key := string(p)
	var t task
	switch {
	case x < qfCount:
		t = func() outcome {
			var n int
			return call("count", func() (err error) { n, err = cl.count(p); return err },
				func() error { return o.checkCount(p, n) })
		}
	case x < qfFind:
		t = func() outcome {
			var got []server.FindResult
			return call("find", func() (err error) { got, err = cl.find(p, findLimit); return err },
				func() error { return o.checkFind(p, findLimit, got) })
		}
	case x < qfRegex:
		rq := g.regexes[g.rng.Intn(len(g.regexes))]
		key = rq.expr
		t = func() outcome {
			var got []server.SearchResult
			spec := dyncoll.SearchPlan{Pattern: rq.expr, Regex: true, K: regexK}
			return call("regex", func() (err error) { got, err = cl.search(spec); return err },
				func() error { return o.checkRegex(rq.expr, regexK, got) })
		}
	case x < qfTopK:
		t = func() outcome {
			var got []server.SearchResult
			spec := dyncoll.SearchPlan{Pattern: string(p), Ranked: true, K: topK}
			return call("topk", func() (err error) { got, err = cl.search(spec); return err },
				func() error { return o.checkTopK(p, got) })
		}
	default:
		d := g.r.docs[g.rng.Intn(len(g.r.docs))]
		off := g.rng.Intn(len(d.Data))
		key = ""
		t = func() outcome {
			var got []byte
			return call("extract", func() (err error) { got, err = cl.extract(d.ID, off, 32); return err },
				func() error { return o.checkExtract(d.ID, off, 32, got) })
		}
	}
	if key != "" && g.rep != nil {
		g.rep.note(key)
	}
	return t
}

// call times one call into the system, then checks its reply with the
// oracle (outside the timed interval) when it arrived; a nil check
// accepts any reply.
func call(class string, do, check func() error) outcome {
	sent := time.Now()
	err := do()
	o := outcome{class: class, err: err, sent: sent, done: time.Now()}
	if err == nil && check != nil {
		o.wrong = check()
	}
	return o
}

// Latency classes of reads and writes across the workloads.
var (
	readClasses  = []string{"count", "find", "regex", "topk", "extract", "neighbors", "degree"}
	writeClasses = []string{"insert", "delete"}
)

func runQueryFleet(e *env) (*report, error) {
	p := queryFleet
	docs := generate(textCorpus(e.seed), e.scaled(p.docs))
	pool := plantedPool(docs, e.scaled(p.pool), e.seed+1)
	absent := absentPool(docs, max(e.scaled(p.pool)/9, 1), e.seed+2)
	regexes := regexPool(docs, e.scaled(qfRegexes), e.seed+3)
	start := time.Now()
	o := newStaticOracle(docs, append(append([][]byte{}, pool...), absent...), regexes, topK)
	fmt.Fprintf(e.log, "query-fleet: %d docs, %d+%d patterns, %d regexes; oracle in %v\n",
		len(docs), len(pool), len(absent), len(regexes), time.Since(start).Round(time.Millisecond))

	r := &textRun{env: e, docs: docs, res: newReport(), loads: newTally()}
	if e.trace {
		r.tr = newTracer()
	}
	r.spec = fleetSpec{backends: textBackends, replication: p.replication, shards: textShards,
		trace: r.tr, corrupt: e.corrupt}
	defer r.finish()
	firstRead := func() error { return r.verifyCounts(pool[:1], o.counts) }
	if err := r.bringUp(e.setups(), firstRead); err != nil {
		return nil, err
	}
	r.res.total.merge(r.loads)
	// gens returns one operation stream per client goroutine.
	gens := func(rep *repeats) streams {
		return func(seed int64) func(w, i int) task {
			gs := make([]*queryGen, e.conns)
			for w := range gs {
				rng := rand.New(rand.NewSource(seed + int64(w)))
				gs[w] = &queryGen{r: r, o: o, rng: rng, zipf: rand.NewZipf(rng, 1.1, 20, uint64(len(pool)-1)), pool: pool,
					absent: absent, regexes: regexes, rep: rep}
			}
			return func(w, _ int) task { return gs[w].next() }
		}
	}
	rate := p.rate * e.rateScale
	rep := newRepeats()
	if e.trace {
		return r.res, r.traceQueries(gens(rep), rep, rate, regexes, pool)
	}

	ph, err := measure(e, rate, gens(rep), nil, r.res.total)
	if err != nil {
		return nil, err
	}
	r.footprint()
	res := r.res.e2e
	ph.latencies(res, r.res.extra, "count", "find")
	res["setup_s"] = median(r.setup)
	// The workload does not write while it measures; its writes are the
	// preload's bulk batches, acknowledged during the set-ups.
	res["write_p50_ms"] = r.loads.lat.quantileOf(0.5, "insert")
	r.res.extra["write_p99_ms"] = r.loads.lat.quantileOf(0.99, "insert")
	r.res.extra["regex_p50_ms"] = ph.mixed.lat.quantileOf(0.5, "regex")
	r.res.extra["topk_p50_ms"] = ph.mixed.lat.quantileOf(0.5, "topk")
	r.res.extra["repeat_frac"] = rep.frac()

	_, heap, err := r.restart(1, firstRead)
	if err != nil {
		return nil, err
	}
	res["heap_mb"] = heap
	res["restart_s"] = median(r.restarts)
	// After a restart every pool pattern must still count right.
	// A failed verification read is already counted as failed.
	_ = r.verifyCounts(append(append([][]byte{}, pool...), absent...), o.counts)
	return r.res, nil
}

// traceQueries is query-fleet's traced run.
func (r *textRun) traceQueries(mix streams, rep *repeats, rate float64, regexes []regexQuery, pool [][]byte) error {
	L := r.res.layers
	traced, err := r.tracedPhase(rate, mix)
	if err != nil {
		return err
	}
	staticFloor(r.docs, pool, L)
	var specs []dyncoll.SearchPlan
	for _, rq := range regexes {
		specs = append(specs, dyncoll.SearchPlan{Pattern: rq.expr, Regex: true, K: regexK})
	}
	for _, p := range pool {
		specs = append(specs, dyncoll.SearchPlan{Pattern: string(p), Ranked: true, K: topK})
	}
	if err := compileCost(specs, L); err != nil {
		return err
	}
	L["client.regex.p50_us"] = 1e3 * traced.lat.quantileOf(0.5, "regex")
	L["client.topk.p50_us"] = 1e3 * traced.lat.quantileOf(0.5, "topk")
	L["loadgen.repeat_frac"] = rep.frac()
	return r.writeSpans()
}

// writeSpans saves the traced run's spans in the output directory.
func (r *textRun) writeSpans() error {
	r.tr.mu.Lock()
	defer r.tr.mu.Unlock()
	return writeSpans(r.env.spansPath(), r.tr.spans)
}

// verifyCounts checks the count of every listed pattern through the
// frontend against want, over the run's client connections. A wrong
// count is recorded as a wrong answer of the run; the error reports
// reads that failed.
func (r *textRun) verifyCounts(pats [][]byte, want map[string]int) error {
	t := newTally()
	runAll(len(pats), r.env.conns, func(i int) task {
		p := pats[i]
		return func() outcome {
			var n int
			return call("count", func() (err error) { n, err = r.cl.count(p); return err }, func() error {
				if n != want[string(p)] {
					return fmt.Errorf("count %q = %d, want %d", p, n, want[string(p)])
				}
				return nil
			})
		}
	}, t)
	r.res.total.merge(t)
	if n := t.failed.Load(); n > 0 {
		return fmt.Errorf("%d of %d verification reads failed", n, len(pats))
	}
	return nil
}

package main

import (
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"dyncoll"
	"dyncoll/internal/server"
	"dyncoll/internal/textgen"
)

// churnDurable: mixed open loop over a frontend and 2 durable backends
// at R=2, so every write reaches both replicas' WALs before it is
// acknowledged. Writes are 16-document insert batches and deletes of
// the 16 oldest documents, keeping the live corpus steady; reads are
// count and find over a large pool with few repeats.
var churnDurable = textParams{docs: 6000, pool: 3000, replication: 2, rate: 150, writeFrac: 0.2}

// churnState is the generator side of churn-durable: the document
// stream and the FIFO of acknowledged live documents to delete next.
type churnState struct {
	r     *textRun
	m     *liveModel
	src   *textgen.Collection
	pool  [][]byte
	acked atomic.Int64 // acknowledged payload bytes (all inserts)

	mu     sync.Mutex
	oldest []uint64 // acknowledged live IDs, oldest first, not yet scheduled for deletion
	// src (above) is also guarded by mu: both client goroutines draw
	// documents from it.
}

func (c *churnState) pushLive(ids []uint64) {
	c.mu.Lock()
	c.oldest = append(c.oldest, ids...)
	c.mu.Unlock()
}

// popOldest schedules the n oldest acknowledged documents for deletion.
func (c *churnState) popOldest(n int) []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.oldest) < n {
		return nil
	}
	ids := append([]uint64(nil), c.oldest[:n]...)
	c.oldest = c.oldest[n:]
	return ids
}

// readTask is a count or find on a pool pattern, checked against the
// interval the overlapping writes allow.
func (c *churnState) readTask(rng *rand.Rand) task {
	cl, m := c.r.cl, c.m
	p := c.pool[rng.Intn(len(c.pool))]
	if rng.Intn(2) == 0 {
		return func() outcome {
			tok := m.readBegin(p)
			defer m.readEnd(tok)
			var n int
			return call("count", func() (err error) { n, err = cl.count(p); return err },
				func() error { return m.checkCount(tok, p, n) })
		}
	}
	return func() outcome {
		tok := m.readBegin(p)
		defer m.readEnd(tok)
		var got []server.FindResult
		return call("find", func() (err error) { got, err = cl.find(p, findLimit); return err },
			func() error { return m.checkFind(tok, p, findLimit, got) })
	}
}

// writeTask alternates 16-document inserts of new documents with
// deletes of the 16 oldest live ones.
func (c *churnState) writeTask(i int) task {
	cl, m := c.r.cl, c.m
	if i%2 == 1 {
		if ids := c.popOldest(churnBatch); ids != nil {
			return func() outcome {
				w := m.begin(false, ids)
				var n int
				o := call("delete", func() (err error) { n, err = cl.delete(ids); return err }, func() error {
					if n != len(ids) {
						return fmt.Errorf("delete of %d live documents removed %d", len(ids), n)
					}
					return nil
				})
				o.write = true
				m.end(w, o.err)
				return o
			}
		}
	}
	docs := make([]dyncoll.Document, churnBatch)
	ids := make([]uint64, churnBatch)
	c.mu.Lock()
	for j := range docs {
		docs[j] = c.src.NextDoc()
		ids[j] = docs[j].ID
	}
	c.mu.Unlock()
	m.add(docs)
	return func() outcome {
		w := m.begin(true, ids)
		o := call("insert", func() error { return cl.insert(docs) }, func() error { return nil })
		o.write = true
		m.end(w, o.err)
		if o.err == nil {
			c.pushLive(ids)
			for _, d := range docs {
				c.acked.Add(int64(len(d.Data)))
			}
		}
		return o
	}
}

func runChurnDurable(e *env) (*report, error) {
	p := churnDurable
	src := textCorpus(e.seed)
	docs := generate(src, e.scaled(p.docs))
	pool := plantedPool(docs, e.scaled(p.pool), e.seed+1)
	m := newLiveModel(pool)
	m.add(docs)

	r := &textRun{env: e, docs: docs, res: newReport(), loads: newTally()}
	if e.trace {
		r.tr = newTracer()
	}
	r.spec = fleetSpec{backends: textBackends, replication: p.replication, shards: textShards,
		durable: true, trace: r.tr, corrupt: e.corrupt}
	defer r.finish()
	ids := make([]uint64, len(docs))
	var preBytes int64
	for i, d := range docs {
		ids[i] = d.ID
		preBytes += int64(len(d.Data))
	}
	m.mu.Lock()
	m.apply(true, ids) // every set-up acknowledges the whole preload
	m.mu.Unlock()
	preloaded, err := m.expected()
	if err != nil {
		return nil, err
	}
	if err := r.bringUp(e.setups(), func() error { return r.verifyCounts(pool[:1], preloaded) }); err != nil {
		return nil, err
	}
	r.res.total.merge(r.loads)
	r.docs = nil // the model holds the preload from here on
	c := &churnState{r: r, m: m, src: src, pool: pool, oldest: ids}
	c.acked.Store(preBytes)

	rate := p.rate * e.rateScale
	// mix and reads return one operation stream per client goroutine.
	mix := func(seed int64) func(w, i int) task {
		rngs := make([]*rand.Rand, e.conns)
		writes := make([]int, e.conns)
		for w := range rngs {
			rngs[w] = rand.New(rand.NewSource(seed + int64(w)))
		}
		return func(w, _ int) task {
			if rngs[w].Float64() < p.writeFrac {
				writes[w]++
				return c.writeTask(writes[w])
			}
			return c.readTask(rngs[w])
		}
	}
	reads := func(seed int64) func(w, i int) task {
		rngs := make([]*rand.Rand, e.conns)
		for w := range rngs {
			rngs[w] = rand.New(rand.NewSource(seed + int64(w)))
		}
		return func(w, _ int) task { return c.readTask(rngs[w]) }
	}
	var ph *phases
	if e.trace {
		_, err = r.tracedPhase(rate, mix)
	} else {
		ph, err = measure(e, rate, mix, reads, r.res.total)
	}
	if err != nil {
		return nil, err
	}
	if err := m.resolve(func(id uint64) (bool, error) {
		_, err := r.cl.extract(id, 0, 1)
		if err != nil && strings.Contains(err.Error(), "status 404") {
			return false, nil
		}
		return err == nil, err
	}); err != nil {
		return nil, err
	}
	want, err := m.expected()
	if err != nil {
		return nil, err
	}
	if !e.trace {
		r.footprint()
	}
	// Failed verification reads are already counted as failed.
	_ = r.verifyCounts(pool, want)
	walBytes := dirBytes(r.spec.dir)

	_, heap, err := r.restart(1, func() error { return r.verifyCounts(pool[:1], want) })
	if err != nil {
		return nil, err
	}
	// Recovery stats of the reopen, summed over the fleet's collections
	// (Duration is the slowest one's).
	var recov dyncoll.RecoveryStats
	for _, d := range r.f.durables() {
		st := d.RecoveryStats()
		recov.Duration = max(recov.Duration, st.Duration)
		recov.WALRecords += st.WALRecords
		recov.CheckpointLoaded = recov.CheckpointLoaded || st.CheckpointLoaded
	}
	_ = r.verifyCounts(pool, want)
	if e.trace {
		L := r.res.layers
		staticFloor(m.liveDocs(), pool, L)
		specs := make([]dyncoll.SearchPlan, len(pool))
		for i, p := range pool {
			specs[i] = dyncoll.SearchPlan{Pattern: string(p)}
		}
		if err := compileCost(specs, L); err != nil {
			return nil, err
		}
		L["wal.bytes_per_user_byte"] = float64(walBytes) / float64(c.acked.Load()*int64(p.replication))
		L["wal.recovery_s"] = recov.Duration.Seconds()
		L["wal.replayed_records"] = float64(recov.WALRecords)
		L["wal.checkpoint_loaded"] = boolFloat(recov.CheckpointLoaded)
		return r.res, r.writeSpans()
	}
	res := r.res.e2e
	ph.latencies(res, r.res.extra, "count", "find")
	res["setup_s"] = median(r.setup)
	res["restart_s"] = median(r.restarts)
	res["heap_mb"] = heap
	return r.res, nil
}

// tracedPhase is a fleet workload's traced measurement: it samples the
// engine and brackets the traced half with the frontend's counters,
// then derives the per-layer metrics from the spans.
func (r *textRun) tracedPhase(rate float64, mix streams) (*tally, error) {
	L := r.res.layers
	s := startSampler(r.f.engineColls, r.spec.replication)
	var before, after map[string]int64
	traced, err := measureTraced(r.env, rate, mix, r.tr, r.res.total, L, func(start bool) (err error) {
		if start {
			before, err = frontendCounters(r.cl)
		} else {
			after, err = frontendCounters(r.cl)
		}
		return err
	})
	s.finish(L)
	if err != nil {
		return nil, err
	}
	fleetLayers(r.tr, before, after, L)
	return traced, nil
}

func boolFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sync"
	"time"

	"dyncoll"
	"dyncoll/internal/fmindex"
	"dyncoll/internal/query"
	"dyncoll/internal/textgen"
)

// textParams sizes a text workload at scale 1.
type textParams struct {
	docs        int     // preloaded documents
	pool        int     // planted patterns
	replication int     // R
	rate        float64 // open-loop operations per second
	writeFrac   float64 // share of the full mix that writes
}

const (
	textBackends = 2
	textShards   = 2
	preloadBatch = 128 // documents per preload request
	churnBatch   = 16  // documents per churn insert or delete
	findLimit    = 100
	topK         = 10
	regexK       = 100
)

// textCorpus generates the workload's documents: order-2 Markov text
// over 64 symbols with Zipf-distributed lengths of 32 to 2048 bytes.
func textCorpus(seed int64) *textgen.Collection {
	return textgen.NewCollection(textgen.CollectionOptions{MinLen: 32, MaxLen: 2048, Seed: seed})
}

// generate draws n more documents from the corpus source. The source
// keeps no reference to them, so the caller decides how long they live.
func generate(src *textgen.Collection, n int) []dyncoll.Document {
	out := make([]dyncoll.Document, n)
	for i := range out {
		out[i] = src.NextDoc()
	}
	src.Docs = nil
	return out
}

// pattern lengths of the planted pool.
var patternLens = []int{5, 7, 9}

// plantedPool draws n patterns that occur in docs, without duplicates.
func plantedPool(docs []dyncoll.Document, n int, seed int64) [][]byte {
	ps := textgen.NewPatternSampler(docs, seed)
	seen := map[string]bool{}
	var out [][]byte
	for len(out) < n {
		p := ps.Planted(patternLens[len(out)%len(patternLens)])
		if !seen[string(p)] {
			seen[string(p)] = true
			out = append(out, p)
		}
	}
	return out
}

// absentPool draws n random 8-byte patterns over the same alphabet
// (almost all absent from the corpus; the oracle decides).
func absentPool(docs []dyncoll.Document, n int, seed int64) [][]byte {
	ps := textgen.NewPatternSampler(docs, seed)
	out := make([][]byte, n)
	for i := range out {
		out[i] = ps.Random(8, 64)
	}
	return out
}

// regexPool builds regexes of the form A.{0,2}B from planted 11-byte
// substrings, so every regex has matches and required literals.
func regexPool(docs []dyncoll.Document, n int, seed int64) []regexQuery {
	ps := textgen.NewPatternSampler(docs, seed)
	seen := map[string]bool{}
	var out []regexQuery
	for len(out) < n {
		s := ps.Planted(11)
		expr := "(?s)" + regexp.QuoteMeta(string(s[:4])) + ".{0,2}" + regexp.QuoteMeta(string(s[7:]))
		if seen[expr] {
			continue
		}
		seen[expr] = true
		out = append(out, regexQuery{expr: expr, lit: s[:4], re: regexp.MustCompile(expr)})
	}
	return out
}

// preload inserts docs through the frontend in bulk batches over the
// run's client connections, recording each acknowledgement as a write.
func preload(cl *client, docs []dyncoll.Document, conns int, t *tally) error {
	batches := (len(docs) + preloadBatch - 1) / preloadBatch
	failed := t.failed.Load()
	runAll(batches, conns, func(i int) task {
		b := docs[i*preloadBatch : min((i+1)*preloadBatch, len(docs))]
		return func() outcome {
			o := call("insert", func() error { return cl.insert(b) }, nil)
			o.write = true
			return o
		}
	}, t)
	if n := t.failed.Load() - failed; n > 0 {
		return fmt.Errorf("%d of %d batches failed", n, batches)
	}
	return nil
}

// textRun is the state of one text workload run.
type textRun struct {
	env      *env
	docs     []dyncoll.Document
	spec     fleetSpec
	f        *fleet
	cl       *client
	tr       *tracer
	res      *report
	setup    []float64 // seconds, one per set-up
	restarts []float64 // seconds, one per timed restart
	loads    *tally    // preload acknowledgements
}

// bringUp sets the fleet up `times` times and records each set-up
// time: start the fleet, acknowledge the preload through the frontend,
// WaitIdle. Every set-up but the last is restarted restartsPerSetup
// times, each restart timed until firstRead answers, and torn down.
func (r *textRun) bringUp(times int, firstRead func() error) error {
	for k := 0; k < times; k++ {
		if r.f != nil {
			ts, _, err := r.restart(restartsPerSetup, firstRead)
			if err != nil {
				return err
			}
			r.restarts = append(r.restarts, ts...)
			r.cl.close()
			r.f.close()
			os.RemoveAll(r.spec.dir)
		}
		r.spec.dir = filepath.Join(r.env.work, fmt.Sprintf("fleet-%d", k))
		runtime.GC() // every set-up starts from a collected heap
		start := time.Now()
		f, err := startFleet(r.spec)
		if err != nil {
			return err
		}
		r.f, r.cl = f, newClient(f.url, r.env.conns, r.tr)
		if err := preload(r.cl, r.docs, r.env.conns, r.loads); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		f.waitIdle()
		r.setup = append(r.setup, time.Since(start).Seconds())
	}
	return nil
}

// restart restarts every backend `times` times the way dyndocd does —
// drain (WaitIdle, then the drain snapshot of a plain backend, or a
// checkpoint and closing the WAL of a durable one), then recover before
// listening — and times each restart from the reopen until firstRead
// answers. It also returns, in MB, the heap the last drain released: the
// backends' own heap, without the harness's inputs and oracles.
func (r *textRun) restart(times int, firstRead func() error) ([]float64, float64, error) {
	snaps := ""
	if !r.spec.durable {
		snaps = filepath.Join(r.env.work, "snapshots")
		if err := os.MkdirAll(snaps, 0o755); err != nil {
			return nil, 0, err
		}
	}
	var out []float64
	var released float64
	for k := 0; k < times; k++ {
		r.f.waitIdle()
		inUse := heapMB()
		for _, n := range r.f.nodes {
			if err := n.drain(snaps, true); err != nil {
				return nil, 0, fmt.Errorf("drain backend %d: %w", n.idx, err)
			}
		}
		released = inUse - heapMB() // also: every restart starts from a collected heap
		start := time.Now()
		for _, n := range r.f.nodes {
			if err := n.open(r.spec, snaps); err != nil {
				return nil, 0, fmt.Errorf("restart backend %d: %w", n.idx, err)
			}
		}
		if err := firstRead(); err != nil {
			return nil, 0, fmt.Errorf("first read after restart: %w", err)
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, released, nil
}

// finish tears the fleet down.
func (r *textRun) finish() {
	if r.f != nil {
		r.cl.close()
		r.f.close()
	}
}

// footprint reports index bits per live symbol after WaitIdle.
func (r *textRun) footprint() {
	r.f.waitIdle()
	var bits, syms int64
	for _, c := range r.f.engineColls() {
		bits += c.SizeBits()
		syms += int64(c.Len())
	}
	r.res.e2e["index_bits_per_symbol"] = float64(bits) / float64(max(syms, 1))
}

// heapMB collects garbage and returns the heap in use, in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / 1e6
}

// engineSampler samples the ladder shape of every collection once a
// second while a phase runs.
type engineSampler struct {
	stop chan struct{}
	done chan struct{}

	mu                      sync.Mutex
	stores                  []float64
	topsMax, levelsMax      int
	pendingMax              int
	rebuilds0, global0      int
	rebuilds, globalRebuild int
}

// engineStats sums the stats of the listed structures: stores a query
// visits (per shard C0 plus the compressed levels, counted at the
// deepest shard, plus the tops), divided by the replication factor
// since a read visits one replica.
func engineStats(colls []engineColl, replication int) (stores, tops, levels, pending, rebuilds, global int) {
	for _, c := range colls {
		st := c.Stats()
		stores += max(st.Shards, 1)*st.Levels + st.Tops
		tops += st.Tops
		levels = max(levels, st.Levels)
		pending += st.PendingBuilds
		rebuilds += st.Rebuilds
		global += st.GlobalRebuilds
	}
	return stores / replication, tops / replication, levels, pending, rebuilds, global
}

func startSampler(colls func() []engineColl, replication int) *engineSampler {
	s := &engineSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := func() {
		stores, tops, levels, pending, rebuilds, global := engineStats(colls(), replication)
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.stores == nil {
			s.rebuilds0, s.global0 = rebuilds, global
		}
		s.stores = append(s.stores, float64(stores))
		s.topsMax = max(s.topsMax, tops)
		s.levelsMax = max(s.levelsMax, levels)
		s.pendingMax = max(s.pendingMax, pending)
		s.rebuilds, s.globalRebuild = rebuilds-s.rebuilds0, global-s.global0
	}
	sample()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				sample()
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return s
}

// finish stops sampling and reports the engine metrics.
func (s *engineSampler) finish(layers map[string]float64) {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	layers["engine.stores_per_query"] = median(s.stores)
	layers["engine.tops_max"] = float64(s.topsMax)
	layers["engine.levels_max"] = float64(s.levelsMax)
	layers["engine.pending_builds_max"] = float64(s.pendingMax)
	layers["engine.rebuilds"] = float64(s.rebuilds)
	layers["engine.global_rebuilds"] = float64(s.globalRebuild)
}

// staticFloor builds a standalone FM index over the final live corpus
// (the static floor the paper's dynamic structure is measured against)
// and times Range over the workload's patterns.
func staticFloor(docs []dyncoll.Document, pats [][]byte, layers map[string]float64) {
	syms := 0
	for _, d := range docs {
		syms += len(d.Data)
	}
	start := time.Now()
	x := fmindex.Build(docs, fmindex.Options{SampleRate: 16})
	layers["fmindex.build_ns_per_symbol"] = float64(time.Since(start).Nanoseconds()) / float64(max(syms, 1))
	const reps = 20
	per := make([]float64, len(pats))
	for i, p := range pats {
		start := time.Now()
		for j := 0; j < reps; j++ {
			x.Range(p)
		}
		per[i] = float64(time.Since(start).Nanoseconds()) / reps / 1e3
	}
	layers["fmindex.range_us"] = quantile(per, 0.5)
	if c := layers["dyncoll.Count.p50_us"]; c > 0 && layers["fmindex.range_us"] > 0 {
		layers["dyncoll.count_over_static"] = c / layers["fmindex.range_us"]
	}
}

// compileCost times query.Compile over the workload's specs and the
// share of regex plans that fall back to scanning every document.
func compileCost(specs []dyncoll.SearchPlan, layers map[string]float64) error {
	per := make([]float64, len(specs))
	regexes, scans := 0, 0
	for i, s := range specs {
		start := time.Now()
		p, err := query.Compile(s)
		per[i] = float64(time.Since(start).Nanoseconds()) / 1e3
		if err != nil {
			return fmt.Errorf("compile %q: %w", s.Pattern, err)
		}
		if s.Regex {
			regexes++
			if p.ScanFallback() {
				scans++
			}
		}
	}
	layers["query.compile_us"] = quantile(per, 0.5)
	layers["query.scan_fallback_frac"] = float64(scans) / float64(max(regexes, 1))
	return nil
}

// frontendCounters reads the frontend's fault-tolerance counters.
func frontendCounters(cl *client) (map[string]int64, error) {
	v, err := cl.varz()
	if err != nil {
		return nil, err
	}
	return v.Counters, nil
}

// fleetLayers turns the traced phase's spans and counter deltas into
// the server.*, dyncoll.*, wal.* and client.* metrics.
func fleetLayers(tr *tracer, before, after map[string]int64, layers map[string]float64) {
	tr.mu.Lock()
	spans := tr.spans
	tr.mu.Unlock()
	link(spans)
	self := layerTimes(spans)
	for _, op := range []string{"count", "find", "search", "insert"} {
		layers["server.frontend."+op+".self_us"] = quantile(self["server.frontend."+op], 0.5)
	}
	for _, op := range []string{"count", "find", "search", "insert", "delete"} {
		layers["server.backend."+op+".self_us"] = quantile(self["server.backend."+op], 0.5)
	}
	layers["client.count.self_us"] = quantile(self["client.count"], 0.5)
	calls := newSamples()
	fronts, backs := 0, 0
	for _, s := range spans {
		switch s.Layer {
		case "server.frontend":
			fronts++
		case "server.backend":
			backs++
		case "dyncoll", "wal":
			calls.add(s.Layer+"."+s.Op, time.Duration(s.dur()))
		}
	}
	for _, m := range []string{"Count", "FindLimit", "Search", "Extract", "InsertBatch", "DeleteBatch"} {
		layers["dyncoll."+m+".p50_us"] = 1e3 * calls.quantileOf(0.5, "dyncoll."+m)
		layers["dyncoll."+m+".busy_s"] = calls.sum("dyncoll."+m) / 1e3
	}
	layers["wal.InsertBatch.p50_us"] = 1e3 * calls.quantileOf(0.5, "wal.InsertBatch")
	layers["wal.DeleteBatch.p50_us"] = 1e3 * calls.quantileOf(0.5, "wal.DeleteBatch")
	if fronts > 0 {
		layers["server.frontend.backend_calls_per_op"] = float64(backs) / float64(fronts)
		for _, c := range []string{"hedges", "hedge_wins", "retries"} {
			layers["server.frontend."+c+"_per_kop"] = 1000 * float64(after[c]-before[c]) / float64(fronts)
		}
	}
	// Attribution: client transport, frontend, and the backend and
	// collection time of the backend call each count waited for, as a
	// share of the traced client-side count.
	var clientCount []float64
	for _, s := range spans {
		if s.Layer == "client" && s.Op == "count" {
			clientCount = append(clientCount, float64(s.dur())/1e3)
		}
	}
	if total := quantile(clientCount, 0.5); total > 0 {
		sum := layers["client.count.self_us"] + layers["server.frontend.count.self_us"] +
			quantile(self["path.server.backend.count"], 0.5) + quantile(self["path.dyncoll.count"], 0.5)
		layers["trace.count_attributed_frac"] = sum / total
	}
}

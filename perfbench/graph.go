package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"dyncoll"
)

// graphChurn: an in-process sharded Graph (the paper's Theorem 3 path,
// internal/binrel under the facade) with power-law degrees, driven by
// an open loop of 70% neighbour reads and 30% edge inserts and deletes.
var graphChurn = struct {
	vertices, edges int
	rate            float64
}{vertices: 20000, edges: 80000, rate: 5000}

// Graph operation mix (cumulative shares).
const (
	gNeighbors = 0.30
	gReverse   = gNeighbors + 0.30
	gOutDeg    = gReverse + 0.05
	gInDeg     = gOutDeg + 0.05 // reads end here
	gAdd       = gInDeg + 0.15  // the rest deletes
)

type edge struct{ u, v uint64 }

// edgeWrite is one AddEdge or DeleteEdge, registered when sent.
type edgeWrite struct {
	add bool
	e   edge
	pos int // in the log
}

// graphModel is the adjacency-map oracle. As with liveModel, a write is
// applied when acknowledged and a read overlapping writes may see any
// subset of them.
type graphModel struct {
	mu      sync.Mutex
	out, in map[uint64]map[uint64]bool
	edges   []edge       // acknowledged edges, for uniform picks
	at      map[edge]int // position in edges
	pending map[edge]bool
	log     writeLog[*edgeWrite]
	active  map[*edgeWrite]bool
}

func newGraphModel() *graphModel {
	return &graphModel{out: map[uint64]map[uint64]bool{}, in: map[uint64]map[uint64]bool{},
		at: map[edge]int{}, pending: map[edge]bool{}, active: map[*edgeWrite]bool{}}
}

func (m *graphModel) set(e edge, present bool) {
	if present {
		if m.out[e.u] == nil {
			m.out[e.u] = map[uint64]bool{}
		}
		if m.in[e.v] == nil {
			m.in[e.v] = map[uint64]bool{}
		}
		m.out[e.u][e.v], m.in[e.v][e.u] = true, true
		m.at[e] = len(m.edges)
		m.edges = append(m.edges, e)
		return
	}
	delete(m.out[e.u], e.v)
	delete(m.in[e.v], e.u)
	i := m.at[e]
	last := m.edges[len(m.edges)-1]
	m.edges[i], m.at[last] = last, i
	m.edges = m.edges[:len(m.edges)-1]
	delete(m.at, e)
}

func (m *graphModel) has(e edge) bool { return m.out[e.u][e.v] }

// schedule reserves an edge for a generated write so no two queued
// writes touch the same edge.
func (m *graphModel) schedule(rng *rand.Rand, add bool, draw func() edge) (edge, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for try := 0; try < 32; try++ {
		var e edge
		if add {
			e = draw()
			if e.u == e.v || m.has(e) {
				continue
			}
		} else {
			if len(m.edges) == 0 {
				return e, false
			}
			e = m.edges[rng.Intn(len(m.edges))]
		}
		if !m.pending[e] {
			m.pending[e] = true
			return e, true
		}
	}
	return edge{}, false
}

func (m *graphModel) begin(add bool, e edge) *edgeWrite {
	w := &edgeWrite{add: add, e: e}
	m.mu.Lock()
	w.pos = m.log.add(w)
	m.active[w] = true
	m.mu.Unlock()
	return w
}

// end applies an acknowledged write. A failed write leaves the edge
// pending (never touched again) and its state unknown.
func (m *graphModel) end(w *edgeWrite, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.active, w)
	if ok {
		m.set(w.e, w.add)
		delete(m.pending, w.e)
	}
	m.trim()
}

// trim drops the log no read needs any more. Callers hold mu.
func (m *graphModel) trim() {
	keep := m.log.end()
	for w := range m.active {
		keep = min(keep, w.pos)
	}
	m.log.trim(keep)
}

type graphToken struct {
	active   []*edgeWrite
	at, from int // log end when the read was sent; position it holds the log from
}

// readBegin captures the model for a read; readEnd must follow.
func (m *graphModel) readBegin() graphToken {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := graphToken{at: m.log.end()}
	t.from = t.at
	for w := range m.active {
		t.active = append(t.active, w)
		t.from = min(t.from, w.pos)
	}
	m.log.hold(t.from)
	return t
}

func (m *graphModel) readEnd(t graphToken) {
	m.mu.Lock()
	m.log.release(t.from)
	m.trim()
	m.mu.Unlock()
}

// checkList checks a neighbour list of x (out-neighbours when out is
// set): every vertex must be an acknowledged neighbour or touched by an
// overlapping write, and every untouched acknowledged neighbour must
// be present. With count >= 0 only the size is checked.
func (m *graphModel) checkList(t graphToken, x uint64, out bool, got []uint64, count int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	adj := m.in[x]
	if out {
		adj = m.out[x]
	}
	open := map[uint64]bool{}
	for _, w := range append(slices.Clip(t.active), m.log.since(t.at)...) {
		if out && w.e.u == x {
			open[w.e.v] = true
		} else if !out && w.e.v == x {
			open[w.e.u] = true
		}
	}
	for e := range m.pending { // failed writes stay pending: unknown state
		if out && e.u == x {
			open[e.v] = true
		} else if !out && e.v == x {
			open[e.u] = true
		}
	}
	sure := 0
	for y := range adj {
		if !open[y] {
			sure++
		}
	}
	if count >= 0 {
		if count < sure || count > sure+len(open) {
			return fmt.Errorf("degree of %d = %d, want within [%d, %d]", x, count, sure, sure+len(open))
		}
		return nil
	}
	seen := make(map[uint64]bool, len(got))
	for _, y := range got {
		if seen[y] || (!adj[y] && !open[y]) {
			return fmt.Errorf("neighbours of %d: unexpected or repeated %d", x, y)
		}
		seen[y] = true
	}
	for y := range adj {
		if !open[y] && !seen[y] {
			return fmt.Errorf("neighbours of %d: missing %d", x, y)
		}
	}
	return nil
}

// powerLaw draws vertex IDs with a Zipf degree distribution, hot
// vertices scattered over the ID space.
type powerLaw struct {
	z    *rand.Zipf
	perm []uint64
}

func newPowerLaw(rng *rand.Rand, n int) powerLaw {
	perm := make([]uint64, n)
	for i, j := range rng.Perm(n) {
		perm[i] = uint64(j + 1)
	}
	return powerLaw{perm: perm}.with(rng)
}

// with returns the same distribution drawing from rng (one per
// goroutine).
func (p powerLaw) with(rng *rand.Rand) powerLaw {
	return powerLaw{z: rand.NewZipf(rng, 1.1, 50, uint64(len(p.perm)-1)), perm: p.perm}
}

func (p powerLaw) next() uint64 { return p.perm[p.z.Uint64()] }

// graphRun is the state of one graph-churn run.
type graphRun struct {
	env   *env
	nv    int
	g     *dyncoll.Graph
	m     *graphModel
	edges []edge
	tr    *tracer
	calls *samples // binrel call times of the traced phase
	total *tally   // the run's counts; restarts note wrong answers here
}

func graphOptions() []dyncoll.Option {
	return []dyncoll.Option{dyncoll.WithShards(2)}
}

// build creates the graph and adds the preload edges over two
// goroutines, then waits for background rebuilds.
func (r *graphRun) build() (time.Duration, error) {
	r.g = nil
	runtime.GC() // every set-up starts from a collected heap
	start := time.Now()
	g, err := dyncoll.NewGraph(graphOptions()...)
	if err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(r.edges); i += 2 {
				if err := g.AddEdge(r.edges[i].u, r.edges[i].v); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	g.WaitIdle()
	r.g = g
	return time.Since(start), nil
}

// timed runs one graph call, recording a binrel span when tracing.
func (r *graphRun) timed(class, op string, key uint64, do func() error, check func() error) outcome {
	o := call(class, do, check)
	if r.tr.active() {
		d := o.done.Sub(o.sent)
		r.calls.add(op, d)
		end := int64(o.done.Sub(r.tr.base))
		r.tr.record(span{Layer: "binrel", Op: op, Node: -1, Key: fmt.Sprint(key), Start: end - int64(d), End: end})
	}
	return o
}

func (r *graphRun) readTask(pl powerLaw, x float64) task {
	g, m := r.g, r.m
	vx := pl.next()
	switch {
	case x < gNeighbors, x >= gReverse && x < gOutDeg:
		return func() outcome {
			t := m.readBegin()
			defer m.readEnd(t)
			if x < gNeighbors {
				var got []uint64
				return r.timed("neighbors", "Neighbors", vx, func() error { got = g.Neighbors(vx); return nil },
					func() error { return m.checkList(t, vx, true, got, -1) })
			}
			var d int
			return r.timed("degree", "OutDegree", vx, func() error { d = g.OutDegree(vx); return nil },
				func() error { return m.checkList(t, vx, true, nil, d) })
		}
	default:
		return func() outcome {
			t := m.readBegin()
			defer m.readEnd(t)
			if x < gReverse {
				var got []uint64
				return r.timed("neighbors", "ReverseNeighbors", vx, func() error { got = g.ReverseNeighbors(vx); return nil },
					func() error { return m.checkList(t, vx, false, got, -1) })
			}
			var d int
			return r.timed("degree", "InDegree", vx, func() error { d = g.InDegree(vx); return nil },
				func() error { return m.checkList(t, vx, false, nil, d) })
		}
	}
}

func (r *graphRun) writeTask(rng *rand.Rand, pl powerLaw, add bool) task {
	g, m := r.g, r.m
	e, ok := m.schedule(rng, add, func() edge { return edge{pl.next(), pl.next()} })
	if !ok {
		return r.readTask(pl, 0)
	}
	op, class := "DeleteEdge", "delete"
	if add {
		op, class = "AddEdge", "insert"
	}
	return func() outcome {
		w := m.begin(add, e)
		var err error
		o := r.timed(class, op, e.u, func() error {
			if add {
				err = g.AddEdge(e.u, e.v)
			} else {
				err = g.DeleteEdge(e.u, e.v)
			}
			return nil
		}, func() error { return err })
		o.write = true
		// Only a duplicate or missing edge is a refusal, and the model says
		// neither can happen: that is a wrong answer, not a failure.
		m.end(w, err == nil)
		return o
	}
}

func runGraphChurn(e *env) (*report, error) {
	p := graphChurn
	nv, ne := e.scaled(p.vertices), e.scaled(p.edges)
	rng := rand.New(rand.NewSource(e.seed))
	pl := newPowerLaw(rng, nv)
	m := newGraphModel()
	var edges []edge
	for len(edges) < ne {
		ed := edge{pl.next(), pl.next()}
		if ed.u != ed.v && !m.has(ed) {
			m.set(ed, true)
			edges = append(edges, ed)
		}
	}
	res := newReport()
	r := &graphRun{env: e, nv: nv, m: m, edges: edges, calls: newSamples(), total: res.total}
	var setups, restarts []float64
	for k := 0; k < e.setups(); k++ {
		if k > 0 { // restart the set-up about to be discarded (see restartsPerSetup)
			ts, _, err := r.restart(restartsPerSetup)
			if err != nil {
				return nil, err
			}
			restarts = append(restarts, ts...)
		}
		d, err := r.build()
		if err != nil {
			return nil, fmt.Errorf("build graph: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	rate := p.rate * e.rateScale
	// mix and reads return one operation stream per client goroutine.
	mix := func(seed int64) func(w, i int) task {
		rngs, pls := graphStreams(e.conns, seed, pl)
		return func(w, _ int) task {
			x := rngs[w].Float64()
			if x < gInDeg {
				return r.readTask(pls[w], x)
			}
			return r.writeTask(rngs[w], pls[w], x < gAdd)
		}
	}
	reads := func(seed int64) func(w, i int) task {
		rngs, pls := graphStreams(e.conns, seed, pl)
		return func(w, _ int) task { return r.readTask(pls[w], rngs[w].Float64()*gInDeg) }
	}
	if e.trace {
		r.tr = newTracer()
		s := startSampler(func() []engineColl { return []engineColl{graphEngine{r.g}} }, 1)
		_, err := measureTraced(e, rate, mix, r.tr, res.total, res.layers, func(bool) error { return nil })
		s.finish(res.layers)
		if err != nil {
			return nil, err
		}
		for _, op := range []string{"Neighbors", "ReverseNeighbors", "OutDegree", "InDegree", "AddEdge", "DeleteEdge"} {
			res.layers["binrel."+op+".p50_us"] = 1e3 * r.calls.quantileOf(0.5, op)
		}
	}
	var ph *phases
	if !e.trace {
		var err error
		if ph, err = measure(e, rate, mix, reads, res.total); err != nil {
			return nil, err
		}
		r.g.WaitIdle()
		res.e2e["index_bits_per_symbol"] = float64(r.g.SizeBits()) / float64(max(r.g.EdgeCount(), 1))
	}
	if err := r.verifyAll(); err != nil {
		res.total.noteWrong(fmt.Errorf("end of run: %w", err))
	}
	_, heap, err := r.restart(1)
	if err != nil {
		return nil, err
	}
	res.e2e["heap_mb"] = heap
	if err := r.verifyAll(); err != nil {
		res.total.noteWrong(fmt.Errorf("after restart: %w", err))
	}
	if e.trace {
		r.tr.mu.Lock()
		defer r.tr.mu.Unlock()
		return res, writeSpans(e.spansPath(), r.tr.spans)
	}
	ph.latencies(res.e2e, res.extra, "degree", "neighbors")
	res.e2e["setup_s"] = median(setups)
	res.e2e["restart_s"] = median(restarts)
	return res, nil
}

// graphStreams seeds one generator and vertex distribution per client
// goroutine.
func graphStreams(n int, seed int64, pl powerLaw) ([]*rand.Rand, []powerLaw) {
	rngs := make([]*rand.Rand, n)
	pls := make([]powerLaw, n)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(seed + int64(w)))
		pls[w] = pl.with(rngs[w])
	}
	return rngs, pls
}

// graphEngine adapts the graph to the sampler.
type graphEngine struct{ g *dyncoll.Graph }

func (g graphEngine) Stats() dyncoll.IndexStats { return g.g.Stats() }
func (g graphEngine) SizeBits() int64           { return g.g.SizeBits() }
func (g graphEngine) Len() int                  { return g.g.EdgeCount() }
func (g graphEngine) WaitIdle()                 { g.g.WaitIdle() }

// verifyAll compares every vertex's out- and in-neighbours with the
// model (no write is in flight).
func (r *graphRun) verifyAll() error {
	t := r.m.readBegin()
	defer r.m.readEnd(t)
	for v := uint64(1); v <= uint64(r.nv); v++ {
		if err := r.m.checkList(t, v, true, r.g.Neighbors(v), -1); err != nil {
			return err
		}
		if err := r.m.checkList(t, v, false, r.g.ReverseNeighbors(v), -1); err != nil {
			return err
		}
	}
	return nil
}

// restart saves the graph snapshot (the drain; after WaitIdle) and
// times loading it into a fresh graph until the first verified read. It
// also returns, in MB, the heap that dropping the last saved graph
// released: the graph's own heap, without the harness's model.
func (r *graphRun) restart(times int) ([]float64, float64, error) {
	path := filepath.Join(r.env.work, "graph.snap")
	var out []float64
	var released float64
	hub := r.edges[0].u
	for k := 0; k < times; k++ {
		r.g.WaitIdle()
		inUse := heapMB()
		if err := r.g.SaveFile(path); err != nil {
			return nil, 0, err
		}
		r.g = nil
		released = inUse - heapMB() // also: every restart starts from a collected heap
		start := time.Now()
		g, err := dyncoll.NewGraph(graphOptions()...)
		if err != nil {
			return nil, 0, err
		}
		if err := g.LoadFile(path); err != nil {
			return nil, 0, fmt.Errorf("load graph snapshot: %w", err)
		}
		t := r.m.readBegin()
		if err := r.m.checkList(t, hub, true, g.Neighbors(hub), -1); err != nil {
			r.total.noteWrong(fmt.Errorf("first read after restart: %w", err))
		}
		r.m.readEnd(t)
		out = append(out, time.Since(start).Seconds())
		r.g = g
	}
	return out, released, os.Remove(path)
}

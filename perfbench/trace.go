package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dyncoll"
	"dyncoll/internal/server"
)

// Tracing records a span at every layer boundary the benchmark can see
// from outside the program: the client request, the frontend and
// backend HTTP handlers (timing wrappers around their Handler()), and
// each call into the collection a backend serves (a timing decorator
// around the server.Coll handed to NewBackend). Nothing inside the
// program is instrumented. The frontend propagates no request ID to its
// backends, so a backend span is linked to its frontend span by time
// containment plus the request's pattern or ID set, and a collection
// call to its backend span the same way.

// reqHeader carries the client's request number to the frontend span.
const reqHeader = "X-Perfbench-Req"

// span is one timed call at a layer boundary.
type span struct {
	Layer string   `json:"layer"` // client, server.frontend, server.backend, dyncoll, wal, binrel
	Op    string   `json:"op"`    // count, find, search, insert, … or the collection method
	Node  int      `json:"node"`  // backend number, -1 when not a backend span
	Key   string   `json:"key"`   // pattern, extract ID, or first document ID
	IDs   []uint64 `json:"ids,omitempty"`
	Req   int64    `json:"req,omitempty"` // client request number
	Start int64    `json:"start_ns"`      // since the tracer's base
	End   int64    `json:"end_ns"`
	// Yield is the time the call spent inside its caller's callback (a
	// Search handing each match to the backend's NDJSON writer): the
	// caller's work, not the call's.
	Yield  int64 `json:"yield_ns,omitempty"`
	Parent int   `json:"parent"` // index of the parent span, -1 when none
}

// dur is the span's own time: its length minus the time it yielded.
func (s span) dur() int64 { return s.End - s.Start - s.Yield }

// tracer keeps spans in memory while on; a nil tracer records nothing.
type tracer struct {
	on   atomic.Bool
	base time.Time
	seq  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (tr *tracer) active() bool { return tr != nil && tr.on.Load() }

func (tr *tracer) now() int64 { return int64(time.Since(tr.base)) }

func (tr *tracer) record(s span) {
	s.Parent = -1
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// handler wraps an HTTP handler in a span of the given layer.
func (tr *tracer) handler(layer string, node int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.active() {
			h.ServeHTTP(w, r)
			return
		}
		start := tr.now()
		key, ids := requestKey(r)
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		h.ServeHTTP(w, r)
		tr.record(span{Layer: layer, Op: opOfPath(r.URL.Path), Node: node, Key: key, IDs: ids,
			Req: req, Start: start, End: tr.now()})
	})
}

// opOfPath maps /v1/count to "count".
func opOfPath(p string) string { return strings.TrimPrefix(p, "/v1/") }

// requestKey extracts the identity a request is linked by: its pattern,
// its extract ID, or its document IDs. POST bodies are read and put
// back.
func requestKey(r *http.Request) (string, []uint64) {
	q := r.URL.Query()
	if s := q.Get("q"); s != "" {
		return s, nil
	}
	if s := q.Get("id"); s != "" {
		return s, nil
	}
	if r.Body == nil || r.Method != http.MethodPost {
		return "", nil
	}
	body, err := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	if err != nil {
		return "", nil
	}
	switch opOfPath(r.URL.Path) {
	case "search":
		var spec dyncoll.SearchPlan
		if json.Unmarshal(body, &spec) == nil {
			return string(spec.PatternBytes()), nil
		}
	case "delete":
		var req server.DeleteRequest
		if json.Unmarshal(body, &req) == nil && len(req.IDs) > 0 {
			return strconv.FormatUint(req.IDs[0], 10), req.IDs
		}
	case "insert":
		// Scan for "id": fields rather than decoding the base64 payloads;
		// base64 never contains a quote, so the scan cannot misfire.
		var ids []uint64
		for rest := body; ; {
			i := bytes.Index(rest, []byte(`"id":`))
			if i < 0 {
				break
			}
			rest = rest[i+5:]
			j := bytes.IndexAny(rest, ",}")
			if j < 0 {
				break
			}
			if id, err := strconv.ParseUint(string(rest[:j]), 10, 64); err == nil {
				ids = append(ids, id)
			}
		}
		if len(ids) > 0 {
			return strconv.FormatUint(ids[0], 10), ids
		}
	}
	return "", nil
}

// tracedColl is the timing decorator around the collection a backend
// serves. Writes on a durable collection are WAL calls (log, apply,
// fsync); everything else is a dyncoll call.
type tracedColl struct {
	server.Coll
	tr         *tracer
	node       int
	writeLayer string
}

func (c *tracedColl) span(layer, op, key string, start int64) {
	c.tr.record(span{Layer: layer, Op: op, Node: c.node, Key: key, Start: start, End: c.tr.now()})
}

func (c *tracedColl) Count(pattern []byte) int {
	if !c.tr.active() {
		return c.Coll.Count(pattern)
	}
	start := c.tr.now()
	n := c.Coll.Count(pattern)
	c.span("dyncoll", "Count", string(pattern), start)
	return n
}

func (c *tracedColl) FindLimit(pattern []byte, k int) []dyncoll.Occurrence {
	if !c.tr.active() {
		return c.Coll.FindLimit(pattern, k)
	}
	start := c.tr.now()
	occ := c.Coll.FindLimit(pattern, k)
	c.span("dyncoll", "FindLimit", string(pattern), start)
	return occ
}

func (c *tracedColl) Search(plan dyncoll.SearchPlan, fn func(dyncoll.Match) bool) error {
	if !c.tr.active() {
		return c.Coll.Search(plan, fn)
	}
	// The backend encodes and flushes each match inside fn; that time is
	// the backend's, so it is measured and taken out of this span. Search
	// calls fn on the caller's goroutine, one match at a time.
	var yield int64
	start := c.tr.now()
	err := c.Coll.Search(plan, func(m dyncoll.Match) bool {
		t := c.tr.now()
		ok := fn(m)
		yield += c.tr.now() - t
		return ok
	})
	c.tr.record(span{Layer: "dyncoll", Op: "Search", Node: c.node, Key: string(plan.PatternBytes()),
		Start: start, End: c.tr.now(), Yield: yield})
	return err
}

func (c *tracedColl) Extract(id uint64, off, length int) ([]byte, bool) {
	if !c.tr.active() {
		return c.Coll.Extract(id, off, length)
	}
	start := c.tr.now()
	b, ok := c.Coll.Extract(id, off, length)
	c.span("dyncoll", "Extract", strconv.FormatUint(id, 10), start)
	return b, ok
}

func (c *tracedColl) InsertBatch(docs []dyncoll.Document) error {
	if !c.tr.active() || len(docs) == 0 {
		return c.Coll.InsertBatch(docs)
	}
	start := c.tr.now()
	err := c.Coll.InsertBatch(docs)
	c.span(c.writeLayer, "InsertBatch", strconv.FormatUint(docs[0].ID, 10), start)
	return err
}

func (c *tracedColl) DeleteBatch(ids []uint64) (int, error) {
	if !c.tr.active() || len(ids) == 0 {
		return c.Coll.DeleteBatch(ids)
	}
	start := c.tr.now()
	n, err := c.Coll.DeleteBatch(ids)
	c.span(c.writeLayer, "DeleteBatch", strconv.FormatUint(ids[0], 10), start)
	return n, err
}

// collOp maps a collection method to the HTTP op that calls it.
var collOp = map[string]string{
	"Count": "count", "FindLimit": "find", "Search": "search", "Extract": "extract",
	"InsertBatch": "insert", "DeleteBatch": "delete",
}

// link fills every span's Parent: frontend → client by request number;
// backend → frontend and collection call → backend by op, key (or ID
// set) and time containment.
func link(spans []span) {
	type slot struct{ op, key string }
	clients := map[int64]int{}
	fronts := map[slot][]int{}
	backs := map[slot][]int{} // key includes the node
	for i, s := range spans {
		switch s.Layer {
		case "client":
			clients[s.Req] = i
		case "server.frontend":
			if len(s.IDs) > 0 {
				for _, id := range s.IDs {
					k := slot{s.Op, strconv.FormatUint(id, 10)}
					fronts[k] = append(fronts[k], i)
				}
			} else {
				fronts[slot{s.Op, s.Key}] = append(fronts[slot{s.Op, s.Key}], i)
			}
		case "server.backend":
			k := slot{s.Op, strconv.Itoa(s.Node) + "\x00" + s.Key}
			backs[k] = append(backs[k], i)
		}
	}
	contains := func(cands []int, s span) int {
		for _, c := range cands {
			if p := spans[c]; p.Start <= s.Start && s.End <= p.End {
				return c
			}
		}
		return -1
	}
	for i := range spans {
		s := &spans[i]
		s.Parent = -1
		switch s.Layer {
		case "server.frontend":
			if p, ok := clients[s.Req]; ok && s.Req != 0 {
				s.Parent = p
			}
		case "server.backend":
			s.Parent = contains(fronts[slot{s.Op, s.Key}], *s)
		case "dyncoll", "wal":
			s.Parent = contains(backs[slot{collOp[s.Op], strconv.Itoa(s.Node) + "\x00" + s.Key}], *s)
		}
	}
}

// layerTimes derives per-layer self times from linked spans: a
// frontend span minus its longest backend child, a backend span minus
// the time of its collection calls (collTime), a client span minus its
// frontend span. Values are microseconds, keyed "<layer>.<op>". For each client
// request it also records the critical path through the fleet under
// "path.<layer>.<op>": the backend self time and collection time of the
// frontend's longest backend call, the one the reply waited for.
func layerTimes(spans []span) map[string][]float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	longest := func(kids []int) int {
		best := -1
		for _, k := range kids {
			if best < 0 || spans[k].dur() > spans[best].dur() {
				best = k
			}
		}
		return best
	}
	out := map[string][]float64{}
	add := func(key string, ns int64) { out[key] = append(out[key], float64(ns)/1e3) }
	for i, s := range spans {
		kids := children[i]
		switch s.Layer {
		case "client", "server.frontend":
			if k := longest(kids); k >= 0 {
				add(s.Layer+"."+s.Op, s.dur()-spans[k].dur())
			}
			if s.Layer == "server.frontend" {
				if b := longest(kids); b >= 0 {
					coll := collTime(spans, children[b])
					add("path.server.backend."+s.Op, spans[b].dur()-coll)
					add("path.dyncoll."+s.Op, coll)
				}
			}
		case "server.backend":
			add(s.Layer+"."+s.Op, s.dur()-collTime(spans, kids))
		}
	}
	return out
}

// collTime is the time a backend request spent in its collection calls:
// the time they cover minus the time they yielded back to the backend's
// callbacks. A request's calls run one after another or, over several
// collections, feed one callback in turn, so their yields never overlap.
func collTime(spans []span, idx []int) int64 {
	t := unionLen(spans, idx)
	for _, k := range idx {
		t -= spans[k].Yield
	}
	return t
}

// unionLen is the total time covered by the listed spans.
func unionLen(spans []span, idx []int) int64 {
	iv := make([][2]int64, len(idx))
	for i, k := range idx {
		iv[i] = [2]int64{spans[k].Start, spans[k].End}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total, end int64 = 0, -1 << 62
	for _, v := range iv {
		if v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// writeSpans saves the spans as JSON.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

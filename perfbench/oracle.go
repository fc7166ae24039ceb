package main

import (
	"bytes"
	"fmt"
	"regexp"
	"slices"
	"sync"

	"dyncoll"
	"dyncoll/internal/query"
	"dyncoll/internal/server"
)

// The oracles compute every expected answer from the harness's own copy
// of the documents by naive scanning — never through an index — so a
// wrong answer from any layer of the system is caught.

// countIn counts the (possibly overlapping) occurrences of p in text.
func countIn(text, p []byte) int {
	n := 0
	for i := 0; ; i++ {
		j := bytes.Index(text[i:], p)
		if j < 0 {
			return n
		}
		n++
		i += j
	}
}

// patternSet is a fixed pool of patterns grouped by length, so one pass
// over a text per distinct length finds every occurrence of every
// pattern.
type patternSet struct {
	pats  [][]byte
	byLen map[int]map[string]int
}

func newPatternSet(pool [][]byte) *patternSet {
	s := &patternSet{pats: pool, byLen: map[int]map[string]int{}}
	for i, p := range pool {
		if s.byLen[len(p)] == nil {
			s.byLen[len(p)] = map[string]int{}
		}
		s.byLen[len(p)][string(p)] = i
	}
	return s
}

// index returns the pool position of p, or -1.
func (s *patternSet) index(p []byte) int {
	if i, ok := s.byLen[len(p)][string(p)]; ok {
		return i
	}
	return -1
}

// scan calls hit for every occurrence of every pool pattern in docs.
func (s *patternSet) scan(docs []dyncoll.Document, hit func(pi int, doc uint64, off int)) {
	for L, set := range s.byLen {
		for _, d := range docs {
			for off := 0; off+L <= len(d.Data); off++ {
				if pi, ok := set[string(d.Data[off:off+L])]; ok {
					hit(pi, d.ID, off)
				}
			}
		}
	}
}

// regexQuery is one regex of the workload: the expression and a literal
// every match contains (the harness built it that way), which bounds
// the documents the oracle has to run the expression over.
type regexQuery struct {
	expr string
	lit  []byte
	re   *regexp.Regexp
}

type matchKey struct {
	doc      uint64
	off, len int
}

// staticOracle answers for a corpus that does not change.
type staticOracle struct {
	docs   map[uint64][]byte
	counts map[string]int
	topk   map[string][]query.Match // best-first, k = topK
	regex  map[string]map[matchKey]bool
}

func newStaticOracle(docs []dyncoll.Document, pool [][]byte, regexes []regexQuery, topK int) *staticOracle {
	o := &staticOracle{
		docs:   make(map[uint64][]byte, len(docs)),
		counts: make(map[string]int, len(pool)),
		topk:   make(map[string][]query.Match, len(pool)),
		regex:  make(map[string]map[matchKey]bool, len(regexes)),
	}
	for _, d := range docs {
		o.docs[d.ID] = d.Data
	}
	type agg struct{ count, first int }
	perDoc := make([]map[uint64]*agg, len(pool))
	newPatternSet(pool).scan(docs, func(pi int, doc uint64, off int) {
		if perDoc[pi] == nil {
			perDoc[pi] = map[uint64]*agg{}
		}
		a := perDoc[pi][doc]
		if a == nil {
			a = &agg{first: off}
			perDoc[pi][doc] = a
		}
		a.count++
		a.first = min(a.first, off)
	})
	for pi, p := range pool {
		top := query.NewTopK(topK)
		total := 0
		for doc, a := range perDoc[pi] {
			total += a.count
			top.Add(query.Match{Doc: doc, Off: a.first, Len: len(p),
				Score: query.Score(len(o.docs[doc]), a.count, a.first)})
		}
		o.counts[string(p)] = total
		o.topk[string(p)] = top.Sorted()
	}
	for _, rq := range regexes {
		set := map[matchKey]bool{}
		for _, d := range docs {
			if !bytes.Contains(d.Data, rq.lit) {
				continue
			}
			for _, loc := range rq.re.FindAllIndex(d.Data, -1) {
				set[matchKey{d.ID, loc[0], loc[1] - loc[0]}] = true
			}
		}
		o.regex[rq.expr] = set
	}
	return o
}

func (o *staticOracle) checkCount(p []byte, got int) error {
	if want := o.counts[string(p)]; got != want {
		return fmt.Errorf("count %q = %d, want %d", p, got, want)
	}
	return nil
}

// checkFind: every line is a real occurrence, none repeats, and there
// are min(limit, count) of them.
func (o *staticOracle) checkFind(p []byte, limit int, got []server.FindResult) error {
	if want := min(limit, o.counts[string(p)]); len(got) != want {
		return fmt.Errorf("find %q returned %d occurrences, want %d", p, len(got), want)
	}
	return checkOccurrences(o.docs, p, got)
}

func checkOccurrences(docs map[uint64][]byte, p []byte, got []server.FindResult) error {
	seen := make(map[matchKey]bool, len(got))
	for _, r := range got {
		d := docs[r.Doc]
		if r.Off < 0 || r.Off+len(p) > len(d) || !bytes.Equal(d[r.Off:r.Off+len(p)], p) {
			return fmt.Errorf("find %q: (%d, %d) is not an occurrence", p, r.Doc, r.Off)
		}
		k := matchKey{r.Doc, r.Off, 0}
		if seen[k] {
			return fmt.Errorf("find %q: (%d, %d) repeated", p, r.Doc, r.Off)
		}
		seen[k] = true
	}
	return nil
}

// checkTopK compares the ranked reply with the exact expected list.
func (o *staticOracle) checkTopK(p []byte, got []server.SearchResult) error {
	want := o.topk[string(p)]
	if len(got) != len(want) {
		return fmt.Errorf("top-k %q returned %d documents, want %d", p, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Doc != w.Doc || g.Off != w.Off || g.Len != w.Len || g.Score != w.Score {
			return fmt.Errorf("top-k %q rank %d = %+v, want %+v", p, i, g, w)
		}
	}
	return nil
}

// checkRegex: every match is a true leftmost-first match, none repeats,
// and there are min(k, total) of them.
func (o *staticOracle) checkRegex(expr string, k int, got []server.SearchResult) error {
	set := o.regex[expr]
	if want := min(k, len(set)); len(got) != want {
		return fmt.Errorf("regex %q returned %d matches, want %d", expr, len(got), want)
	}
	seen := make(map[matchKey]bool, len(got))
	for _, m := range got {
		key := matchKey{m.Doc, m.Off, m.Len}
		if !set[key] || seen[key] {
			return fmt.Errorf("regex %q: unexpected or repeated match %+v", expr, m)
		}
		seen[key] = true
	}
	return nil
}

func (o *staticOracle) checkExtract(id uint64, off, n int, got []byte) error {
	d := o.docs[id]
	if want := d[off:min(off+n, len(d))]; !bytes.Equal(got, want) {
		return fmt.Errorf("extract(%d, %d, %d) = %q, want %q", id, off, n, got, want)
	}
	return nil
}

// writeLog keeps the writes a model saw begin, in order, for as long as
// something may need them: a read checks against every write in flight
// when it began and every write that began after it. A read holds the
// log from the oldest of those; the log drops what no hold and no write
// in flight reaches.
type writeLog[W any] struct {
	ws    []W
	base  int         // position of ws[0]; earlier writes are dropped
	holds map[int]int // open reads, counted by the position they hold from
}

// add appends a write and returns its position.
func (l *writeLog[W]) add(w W) int {
	l.ws = append(l.ws, w)
	return l.base + len(l.ws) - 1
}

// end is the position the next write gets.
func (l *writeLog[W]) end() int { return l.base + len(l.ws) }

// since returns the writes from pos on; pos must be held.
func (l *writeLog[W]) since(pos int) []W { return l.ws[pos-l.base:] }

func (l *writeLog[W]) hold(pos int) {
	if l.holds == nil {
		l.holds = map[int]int{}
	}
	l.holds[pos]++
}

func (l *writeLog[W]) release(pos int) {
	if l.holds[pos]--; l.holds[pos] == 0 {
		delete(l.holds, pos)
	}
}

// trim drops and returns the writes before every hold and before keep,
// the position of the oldest write in flight (end() when none is).
func (l *writeLog[W]) trim(keep int) []W {
	for p := range l.holds {
		keep = min(keep, p)
	}
	if keep <= l.base {
		return nil
	}
	n := keep - l.base
	dropped := l.ws[:n:n]
	l.ws, l.base = l.ws[n:], keep
	return dropped
}

// liveModel tracks a corpus under concurrent inserts and deletes from
// acknowledgements alone: a write is applied to the model when the
// system acknowledges it. A read overlapping writes may see any subset
// of them, so its answer is checked against the interval those writes
// allow.
type liveModel struct {
	mu     sync.Mutex
	data   map[uint64][]byte // generated documents until no read can need a deleted one
	live   map[uint64]bool
	pool   *patternSet
	cnt    []int // live occurrences per pool pattern
	log    writeLog[*docWrite]
	active map[*docWrite]bool
	failed []*docWrite // unacknowledged: effect unknown until resolved
}

type docWrite struct {
	insert bool
	ids    []uint64
	pos    int  // in the log
	acked  bool // applied to the model
}

func newLiveModel(pool [][]byte) *liveModel {
	m := &liveModel{
		data:   map[uint64][]byte{},
		live:   map[uint64]bool{},
		pool:   newPatternSet(pool),
		cnt:    make([]int, len(pool)),
		active: map[*docWrite]bool{},
	}
	return m
}

// add registers generated documents (not yet live).
func (m *liveModel) add(docs []dyncoll.Document) {
	m.mu.Lock()
	for _, d := range docs {
		m.data[d.ID] = d.Data
	}
	m.mu.Unlock()
}

// apply flips documents live or dead and updates the pool counts.
// Callers hold mu.
func (m *liveModel) apply(insert bool, ids []uint64) {
	sign := -1
	if insert {
		sign = 1
	}
	docs := make([]dyncoll.Document, 0, len(ids))
	for _, id := range ids {
		if m.live[id] == insert {
			continue
		}
		m.live[id] = insert
		if !insert {
			delete(m.live, id)
		}
		docs = append(docs, dyncoll.Document{ID: id, Data: m.data[id]})
	}
	m.pool.scan(docs, func(pi int, _ uint64, _ int) { m.cnt[pi] += sign })
}

// begin registers a write about to be sent.
func (m *liveModel) begin(insert bool, ids []uint64) *docWrite {
	w := &docWrite{insert: insert, ids: ids}
	m.mu.Lock()
	w.pos = m.log.add(w)
	m.active[w] = true
	m.mu.Unlock()
	return w
}

// end applies an acknowledged write, or parks a failed one.
func (m *liveModel) end(w *docWrite, err error) {
	m.mu.Lock()
	delete(m.active, w)
	if err == nil {
		m.apply(w.insert, w.ids)
		w.acked = true
	} else {
		m.failed = append(m.failed, w)
	}
	m.trim()
	m.mu.Unlock()
}

// trim drops the log no read needs any more, and the data of the
// documents its acknowledged deletes removed: nothing can return them
// now without being wrong. Callers hold mu.
func (m *liveModel) trim() {
	keep := m.log.end()
	for w := range m.active {
		keep = min(keep, w.pos)
	}
	for _, w := range m.log.trim(keep) {
		if !w.insert && w.acked {
			for _, id := range w.ids {
				delete(m.data, id)
			}
		}
	}
}

// readToken captures the model when a read is sent.
type readToken struct {
	count  int
	active []*docWrite
	at     int // log end when the read was sent
	from   int // position the read holds the log from
}

// readBegin captures the model for a read of p; readEnd must follow.
func (m *liveModel) readBegin(p []byte) readToken {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := readToken{count: m.cnt[m.pool.index(p)], at: m.log.end()}
	t.from = t.at
	for w := range m.active {
		t.active = append(t.active, w)
		t.from = min(t.from, w.pos)
	}
	m.log.hold(t.from)
	return t
}

func (m *liveModel) readEnd(t readToken) {
	m.mu.Lock()
	m.log.release(t.from)
	m.trim()
	m.mu.Unlock()
}

// readBounds returns the interval of counts of p a read sent at t may
// legitimately return, and the documents whose liveness the
// overlapping writes left open.
func (m *liveModel) readBounds(t readToken, p []byte) (lo, hi int, open map[uint64]bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	lo, hi = t.count, t.count
	open = map[uint64]bool{}
	for _, w := range append(slices.Clip(t.active), m.log.since(t.at)...) {
		for _, id := range w.ids {
			open[id] = true
			if w.insert {
				hi += countIn(m.data[id], p)
			} else {
				lo -= countIn(m.data[id], p)
			}
		}
	}
	for _, w := range m.failed {
		for _, id := range w.ids {
			open[id] = true
			hi += countIn(m.data[id], p)
			lo -= countIn(m.data[id], p)
		}
	}
	return lo, hi, open
}

func (m *liveModel) checkCount(t readToken, p []byte, got int) error {
	lo, hi, _ := m.readBounds(t, p)
	if got < lo || got > hi {
		return fmt.Errorf("count %q = %d, want within [%d, %d]", p, got, lo, hi)
	}
	return nil
}

func (m *liveModel) checkFind(t readToken, p []byte, limit int, got []server.FindResult) error {
	lo, hi, open := m.readBounds(t, p)
	if len(got) > limit || (len(got) < limit && (len(got) < lo || len(got) > hi)) {
		return fmt.Errorf("find %q returned %d occurrences, want min(%d, [%d, %d])", p, len(got), limit, lo, hi)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range got {
		if !m.live[r.Doc] && !open[r.Doc] {
			return fmt.Errorf("find %q: document %d is not live", p, r.Doc)
		}
	}
	return checkOccurrences(m.data, p, got)
}

// expected returns the exact live count of every pool pattern; valid
// only while no write is in flight.
func (m *liveModel) expected() (map[string]int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.active) > 0 || len(m.failed) > 0 {
		return nil, fmt.Errorf("model has %d writes in flight and %d unresolved", len(m.active), len(m.failed))
	}
	out := make(map[string]int, len(m.cnt))
	for i, p := range m.pool.pats {
		out[string(p)] = m.cnt[i]
	}
	return out, nil
}

// resolve settles failed writes by asking the system which of their
// documents are live.
func (m *liveModel) resolve(has func(id uint64) (bool, error)) error {
	m.mu.Lock()
	failed := m.failed
	m.failed = nil
	m.mu.Unlock()
	for _, w := range failed {
		for _, id := range w.ids {
			ok, err := has(id)
			if err != nil {
				return err
			}
			m.mu.Lock()
			m.apply(ok, []uint64{id})
			m.mu.Unlock()
		}
	}
	return nil
}

// liveDocs returns the live documents sorted by ID.
func (m *liveModel) liveDocs() []dyncoll.Document {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]uint64, 0, len(m.live))
	for id := range m.live {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := make([]dyncoll.Document, len(ids))
	for i, id := range ids {
		out[i] = dyncoll.Document{ID: id, Data: m.data[id]}
	}
	return out
}

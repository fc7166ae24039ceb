package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"dyncoll/internal/doc"
)

// TestStageMatchesModel drives the bulk-ingest stage directly through
// inserts and lazy deletes and checks every query against the model:
// matches never cross a document boundary, deleted documents vanish
// from every answer, grouped enumeration is grouped with offsets
// ascending, and patterns containing 0x00 match nothing. The second
// round deletes most documents, so the stage rewrites its buffer.
func TestStageMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s, m := newStage(), newModel()
	var ids []uint64
	del := func(id uint64) {
		t.Helper()
		want, live := m.docs[id]
		wt, ok := s.Delete(id)
		if ok != m.delete(id) || ok != live || (ok && wt != len(want)) {
			t.Fatalf("Delete(%d) = %d,%v; model has %d,%v", id, wt, ok, len(want), live)
		}
		if s.DeadWeight() > s.LiveWeight() {
			t.Fatalf("after Delete(%d): %d dead bytes outweigh %d live", id, s.DeadWeight(), s.LiveWeight())
		}
	}
	for i := 0; i < 300; i++ {
		data := make([]byte, rng.Intn(40))
		for j := range data {
			data[j] = byte('a' + rng.Intn(3))
		}
		d := doc.Doc{ID: uint64(1000 + i), Data: data}
		s.Insert(d)
		m.insert(d)
		ids = append(ids, d.ID)
		if rng.Intn(4) == 0 {
			del(ids[rng.Intn(len(ids))])
		}
	}
	checkStage(t, s, m, ids)
	for _, id := range ids[:280] {
		del(id)
	}
	checkStage(t, s, m, ids)
}

// checkStage compares every query of s with the model.
func checkStage(t *testing.T, s *stage, m *model, ids []uint64) {
	t.Helper()
	if s.LiveWeight() != m.symbols() || len(s.LiveKeys()) != len(m.docs) {
		t.Fatalf("stage holds %d symbols in %d docs, model %d in %d",
			s.LiveWeight(), len(s.LiveKeys()), m.symbols(), len(m.docs))
	}
	if s.LiveWeight()+s.DeadWeight()+len(s.offs) != len(s.buf) {
		t.Fatalf("live %d + dead %d + separators %d != buffer %d",
			s.LiveWeight(), s.DeadWeight(), len(s.offs), len(s.buf))
	}
	for _, d := range s.LiveItems() {
		if !bytes.Equal(d.Data, m.docs[d.ID]) {
			t.Fatalf("LiveItems doc %d = %q, want %q", d.ID, d.Data, m.docs[d.ID])
		}
	}
	for _, p := range []string{"", "a", "ab", "aba", "cc", "abcab", "a\x00b", "\x00", "zz"} {
		pat := []byte(p)
		want := m.find(pat)
		if got := s.count(pat); got != len(want) {
			t.Fatalf("count(%q) = %d, want %d", p, got, len(want))
		}
		var got []Occurrence
		s.findFunc(pat, func(o Occurrence) bool { got = append(got, o); return true })
		if !sameOccs(got, slices.Clone(want)) {
			t.Fatalf("findFunc(%q): %d occurrences differ from the model's %d", p, len(got), len(want))
		}
		var grouped []Occurrence
		s.findGroupedFunc(pat, func(o Occurrence) bool { grouped = append(grouped, o); return true })
		seen := make(map[uint64]bool)
		for i, o := range grouped {
			if i > 0 && grouped[i-1].DocID == o.DocID {
				if grouped[i-1].Off >= o.Off {
					t.Fatalf("findGroupedFunc(%q): offsets not ascending in doc %d", p, o.DocID)
				}
			} else if seen[o.DocID] {
				t.Fatalf("findGroupedFunc(%q): doc %d reported in two groups", p, o.DocID)
			}
			seen[o.DocID] = true
		}
		if !sameOccs(grouped, want) {
			t.Fatalf("findGroupedFunc(%q) differs from the model", p)
		}
	}
	for _, id := range ids {
		data, live := m.docs[id]
		n, ok := s.docLen(id)
		if ok != live || n != len(data) {
			t.Fatalf("docLen(%d) = %d,%v; want %d,%v", id, n, ok, len(data), live)
		}
		got, ok := s.extract(id, 2, 5)
		want := data[min(2, len(data)):min(7, len(data))]
		if ok != live || !bytes.Equal(got, want) {
			t.Fatalf("extract(%d, 2, 5) = %q,%v; want %q,%v", id, got, ok, want, live)
		}
	}
}

// TestStageItemsCannotClobber checks that appending to a payload the
// stage handed out cannot overwrite the separator or the next document.
func TestStageItemsCannotClobber(t *testing.T) {
	s := newStage()
	s.Insert(doc.Doc{ID: 1, Data: []byte("ab")})
	s.Insert(doc.Doc{ID: 2, Data: []byte("cd")})
	items := s.LiveItems()
	_ = append(items[0].Data, 'x', 'x', 'x')
	if got := s.count([]byte("cd")); got != 1 {
		t.Fatalf("count(cd) = %d after appending to an item, want 1", got)
	}
	if got := s.count([]byte("bx")); got != 0 {
		t.Fatalf("count(bx) = %d, want 0", got)
	}
}

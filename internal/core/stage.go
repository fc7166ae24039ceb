package core

import (
	"bytes"
	"slices"

	"dyncoll/internal/doc"
)

// stage is the worst-case engine's uncompressed staging store for bulk
// ingest (engine.Config.NewStage). Batches too light to become a top
// collection of their own are copied into one contiguous buffer, each
// document followed by the reserved separator 0x00, and queries scan
// the buffer with bytes.Index. A pattern never contains 0x00 (patterns
// that do match nothing, as in the static indexes), so no match can
// cross a document boundary. Deletions are lazy: a deleted document's
// bytes stay in the buffer and matches inside it are skipped, until the
// deleted bytes outweigh the live ones and the stage rewrites its buffer
// without them, so a query never scans more than twice the live bytes.
//
// Once a stage is handed to a build (graduation or rebalance) the
// engine installs a fresh one and never inserts into the old one again.
// Bytes once written are never overwritten — a rewrite copies the live
// documents into a new buffer — so the documents LiveItems returns may
// alias the buffer, and a build reads them off-thread without copying.
type stage struct {
	buf  []byte         // documents in insertion order, each followed by 0x00
	offs []int          // start of each document in buf
	ids  []uint64       // document IDs, parallel to offs
	dead []bool         // lazily deleted, parallel to offs
	byID map[uint64]int // live document ID → position in offs

	live, deleted int // live/deleted payload symbols
}

func newStage() *stage { return &stage{byID: make(map[uint64]int)} }

// Insert copies a document into the buffer (engine.Mutable).
func (s *stage) Insert(d doc.Doc) {
	s.byID[d.ID] = len(s.offs)
	s.offs = append(s.offs, len(s.buf))
	s.ids = append(s.ids, d.ID)
	s.dead = append(s.dead, false)
	s.buf = append(s.buf, d.Data...)
	s.buf = append(s.buf, 0)
	s.live += len(d.Data)
}

// Delete lazily removes a document, reporting its symbol weight
// (engine.Store).
func (s *stage) Delete(id uint64) (int, bool) {
	i, ok := s.byID[id]
	if !ok {
		return 0, false
	}
	delete(s.byID, id)
	s.dead[i] = true
	n := s.docLenAt(i)
	s.live -= n
	s.deleted += n
	if s.deleted > s.live {
		s.compact()
	}
	return n, true
}

// compact rewrites the stage with its live documents only; it copies
// fewer bytes than the deleted ones it drops.
func (s *stage) compact() {
	live := s.LiveItems()
	*s = stage{byID: make(map[uint64]int, len(live))}
	for _, d := range live {
		s.Insert(d)
	}
}

// docLenAt is the payload length of the i-th document.
func (s *stage) docLenAt(i int) int {
	end := len(s.buf)
	if i+1 < len(s.offs) {
		end = s.offs[i+1]
	}
	return end - s.offs[i] - 1
}

// data returns the i-th document's payload, capped so an append by the
// caller cannot overwrite the separator that follows it.
func (s *stage) data(i int) []byte {
	lo, hi := s.offs[i], s.offs[i]+s.docLenAt(i)
	return s.buf[lo:hi:hi]
}

// docAt returns the position of the document holding buffer offset p.
// Offsets strictly increase: even an empty document takes its separator.
func (s *stage) docAt(p int) int {
	i, found := slices.BinarySearch(s.offs, p)
	if !found {
		i--
	}
	return i
}

// LiveKeys lists the live document IDs (engine.Store).
func (s *stage) LiveKeys() []uint64 {
	out := make([]uint64, 0, len(s.byID))
	for i, id := range s.ids {
		if !s.dead[i] {
			out = append(out, id)
		}
	}
	return out
}

// LiveItems returns the live documents in insertion order; their
// payloads alias the buffer (engine.Store).
func (s *stage) LiveItems() []doc.Doc {
	out := make([]doc.Doc, 0, len(s.byID))
	for i, id := range s.ids {
		if !s.dead[i] {
			out = append(out, doc.Doc{ID: id, Data: s.data(i)})
		}
	}
	return out
}

// LiveWeight and DeadWeight report live/deleted payload symbols
// (engine.Store).
func (s *stage) LiveWeight() int { return s.live }
func (s *stage) DeadWeight() int { return s.deleted }

// SizeBits counts the buffer and the per-document bookkeeping
// (offset, ID, flag and map entry) (engine.Store).
func (s *stage) SizeBits() int64 {
	return 8 * int64(cap(s.buf)+len(s.offs)*(8+8+1+16))
}

// findFunc reports occurrences in buffer order: grouped by document,
// offsets ascending.
func (s *stage) findFunc(pattern []byte, fn func(Occurrence) bool) {
	if len(pattern) == 0 {
		for i, id := range s.ids {
			if s.dead[i] {
				continue
			}
			for off := 0; off < s.docLenAt(i); off++ {
				if !fn(Occurrence{DocID: id, Off: off}) {
					return
				}
			}
		}
		return
	}
	if bytes.IndexByte(pattern, 0) >= 0 {
		return
	}
	for p := 0; ; p++ {
		j := bytes.Index(s.buf[p:], pattern)
		if j < 0 {
			return
		}
		p += j
		i := s.docAt(p)
		if !s.dead[i] && !fn(Occurrence{DocID: s.ids[i], Off: p - s.offs[i]}) {
			return
		}
	}
}

// findGroupedFunc is findFunc: buffer order is already grouped by
// document with offsets ascending.
func (s *stage) findGroupedFunc(pattern []byte, fn func(Occurrence) bool) {
	s.findFunc(pattern, fn)
}

// count scans like findFunc but locates a match's document only when
// some document is deleted.
func (s *stage) count(pattern []byte) int {
	if len(pattern) == 0 {
		return s.live
	}
	if bytes.IndexByte(pattern, 0) >= 0 {
		return 0
	}
	n := 0
	for p := 0; ; p++ {
		j := bytes.Index(s.buf[p:], pattern)
		if j < 0 {
			return n
		}
		p += j
		if s.deleted == 0 || !s.dead[s.docAt(p)] {
			n++
		}
	}
}

func (s *stage) extract(id uint64, off, length int) ([]byte, bool) {
	i, ok := s.byID[id]
	if !ok {
		return nil, false
	}
	d := s.data(i)
	off = min(max(off, 0), len(d))
	length = min(length, len(d)-off)
	if length <= 0 {
		return nil, true
	}
	return append([]byte(nil), d[off:off+length]...), true
}

func (s *stage) docLen(id uint64) (int, bool) {
	i, ok := s.byID[id]
	if !ok {
		return 0, false
	}
	return s.docLenAt(i), true
}

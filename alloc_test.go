package dyncoll

// Allocation-regression tests for the flattened query hot paths: a
// steady-state Count must not allocate at all (fused RankPair backward
// search + cached engine store lists + closure-free Query plumbing),
// and Find must allocate proportionally to its result set only. These
// pin the tentpole's zero-allocation claim so later refactors cannot
// quietly reintroduce per-query garbage.

import (
	"testing"

	"dyncoll/internal/textgen"
)

// allocCollection builds a quiesced collection with ~64k symbols over
// the given options, ingested in the given number of InsertBatch calls.
func allocCollection(t *testing.T, batches int, opts ...Option) (*Collection, [][]byte) {
	t.Helper()
	gen := textgen.NewCollection(textgen.CollectionOptions{
		Sigma: 16, Order: 1, Skew: 0.6, MinLen: 256, MaxLen: 1024, Seed: 77,
	})
	gen.GenerateTotal(1 << 16)
	c, err := NewCollection(append([]Option{WithSyncRebuilds()}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	per := (len(gen.Docs) + batches - 1) / batches
	for lo := 0; lo < len(gen.Docs); lo += per {
		if err := c.InsertBatch(gen.Docs[lo:min(lo+per, len(gen.Docs))]); err != nil {
			t.Fatal(err)
		}
	}
	c.WaitIdle()
	ps := textgen.NewPatternSampler(gen.Docs, 78)
	return c, ps.PlantedSet(16, 6)
}

func TestCountZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		batches int
		opts    []Option
	}{
		{"worstcase", 1, nil},
		{"worstcase+counting", 1, []Option{WithCounting()}},
		// Sub-threshold batches leave documents in the bulk-ingest
		// stage, whose scan must not allocate either.
		{"worstcase+stage", 32, nil},
		{"amortized", 1, []Option{WithTransformation(Amortized)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, pats := allocCollection(t, tc.batches, tc.opts...)
			if st := c.Stats(); (st.StageDocs > 0) != (tc.batches > 1) {
				t.Fatalf("%d batches left %d documents in the stage", tc.batches, st.StageDocs)
			}
			want := make([]int, len(pats))
			for i, p := range pats {
				want[i] = c.Count(p)
			}
			i := 0
			avg := testing.AllocsPerRun(200, func() {
				p := pats[i%len(pats)]
				if got := c.Count(p); got != want[i%len(pats)] {
					t.Fatalf("Count(%q) drifted: %d != %d", p, got, want[i%len(pats)])
				}
				i++
			})
			if avg != 0 {
				t.Fatalf("steady-state Count allocates %.1f objects/op, want 0", avg)
			}
		})
	}
}

func TestFindAllocsBoundedByResult(t *testing.T) {
	c, pats := allocCollection(t, 1)
	// FindFunc with a pre-allocated sink must stay O(1) allocations per
	// query (the iterator/closure plumbing), independent of the number
	// of occurrences reported.
	i := 0
	var sink Occurrence
	avg := testing.AllocsPerRun(100, func() {
		c.FindFunc(pats[i%len(pats)], func(o Occurrence) bool {
			sink = o
			return true
		})
		i++
	})
	_ = sink
	// The per-call constant covers the closure wiring, not per-result
	// work; 8 is a generous ceiling that still catches any per-match
	// allocation (queries here report hundreds of matches).
	if avg > 8 {
		t.Fatalf("FindFunc allocates %.1f objects/op — per-result allocation suspected", avg)
	}

	// Find materializes its result slice: allocations must scale with
	// result size, not corpus size. Compare a heavy pattern against the
	// same pattern on an equal corpus — the bound here is simply that
	// the amortized growth stays within a small multiple of the slice
	// doublings needed for the result.
	occ := len(c.Find(pats[0]))
	if occ == 0 {
		t.Skip("pattern not present")
	}
	avgFind := testing.AllocsPerRun(50, func() {
		c.Find(pats[0])
	})
	// log2(occ) slice doublings plus the constant plumbing.
	bound := float64(2*bitsLen(occ) + 8)
	if avgFind > bound {
		t.Fatalf("Find of %d occurrences allocates %.1f objects/op, want ≤ %.0f", occ, avgFind, bound)
	}
}

func bitsLen(v int) int {
	n := 0
	for v > 0 {
		v >>= 1
		n++
	}
	return n
}

package engine

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/storage"
)

// storedEventsCtx builds an ExecContext over one stored synthetic table named
// "events" plus its in-memory twin for parity checks.
func storedEventsCtx(t *testing.T, backend storage.Backend, rows int) (*ExecContext, *dataset.Table) {
	t.Helper()
	sp := dataset.SyntheticSpec{Name: "events", Rows: rows, KeyDomain: 97, ZipfS: 1.4, PayloadBytes: 64, Seed: 3}
	stored, err := dataset.WriteSynthetic(backend, "base/events", sp)
	if err != nil {
		t.Fatal(err)
	}
	store := dataset.NewStore()
	store.Add(stored)
	ctx := testCtx()
	ctx.Store = store
	return ctx, dataset.Synthetic(sp)
}

func encodeAll(ts []relation.Tuple) [][]byte {
	out := make([][]byte, len(ts))
	for i, t := range ts {
		out[i] = relation.EncodeTuple(t)
	}
	return out
}

func sameTuplesLabeled(t *testing.T, label string, want, got []relation.Tuple) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d tuples, want %d", label, len(got), len(want))
	}
	ew, eg := encodeAll(want), encodeAll(got)
	for i := range ew {
		if !bytes.Equal(ew[i], eg[i]) {
			t.Fatalf("%s: tuple %d diverged", label, i)
		}
	}
}

func TestStoredScanParity(t *testing.T) {
	posix, err := storage.NewPosix(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	backends := map[string]storage.Backend{"memory": storage.NewMemory(), "posix": posix}
	for name, backend := range backends {
		t.Run(name, func(t *testing.T) {
			defer backend.Close()
			ctx, mem := storedEventsCtx(t, backend, 20000)
			got := drain(t, &TableScan{Table: "events"}, ctx, 0)
			sameTuplesLabeled(t, name, mem.Tuples, got)
		})
	}
}

func TestStoredScanBatchPath(t *testing.T) {
	backend := storage.NewMemory()
	defer backend.Close()
	ctx, mem := storedEventsCtx(t, backend, 20000)
	scan := &TableScan{Table: "events"}
	if err := scan.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if scan.blocks == nil {
		t.Fatal("stored scan did not take the block path")
	}
	var got []relation.Tuple
	batch := relation.NewBatch(113) // odd capacity forces block-boundary crossings
	for {
		n, err := scan.NextBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		got = append(got, append([]relation.Tuple(nil), batch.Tuples...)...)
	}
	if err := scan.Close(); err != nil {
		t.Fatal(err)
	}
	sameTuplesLabeled(t, "batch", mem.Tuples, got)
	if ctx.Meter.ChargedMs() <= 0 {
		t.Fatal("batched scan charged no cost")
	}
}

// TestStoredScanChargesMatchInMemory holds a stored scan to the cost of an
// in-memory scan of the same rows under the paper's byte-dependent scan
// cost: both charge Tuple.ByteSize per tuple, whatever the block encoding
// measures.
func TestStoredScanChargesMatchInMemory(t *testing.T) {
	backend := storage.NewMemory()
	defer backend.Close()
	stored, mem := storedEventsCtx(t, backend, 5000)
	inMem := testCtx()
	inMem.Store = dataset.NewStore()
	inMem.Store.Add(mem)
	if stored.Costs.ScanByteMs == 0 {
		t.Fatal("default costs have no byte-dependent scan component")
	}
	got := drain(t, &TableScan{Table: "events"}, stored, 0)
	want := drain(t, &TableScan{Table: "events"}, inMem, 0)
	sameTuplesLabeled(t, "stored", want, got)
	if s, m := stored.Meter.ChargedMs(), inMem.Meter.ChargedMs(); s != m {
		t.Fatalf("stored scan charged %v ms, in-memory scan of the same rows %v ms", s, m)
	}
}

func TestStoredScanBudgetLifecycle(t *testing.T) {
	backend, err := storage.NewPosix(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	ctx, mem := storedEventsCtx(t, backend, 20000)
	ctx.Mem = storage.NewBudget(1 << 20)

	// Full drain under budget: every block reservation is returned.
	got := drain(t, &TableScan{Table: "events"}, ctx, 0)
	sameTuplesLabeled(t, "drain", mem.Tuples, got)
	if in := ctx.Mem.Inflight(); in != 0 {
		t.Fatalf("after drain: %d bytes still inflight", in)
	}

	// Cancel mid-block: the scan holds the current block's reservation;
	// Close must return it.
	scan := &TableScan{Table: "events"}
	if err := scan.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if n, err := scan.NextBatch(relation.NewBatch(10)); err != nil || n != 10 {
		t.Fatalf("first batch: n=%d err=%v", n, err)
	}
	if err := scan.Close(); err != nil {
		t.Fatal(err)
	}
	if in := ctx.Mem.Inflight(); in != 0 {
		t.Fatalf("after cancel: %d bytes still inflight", in)
	}
	// Close is idempotent.
	if err := scan.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// Close with no reads at all must not leak anything.
	scan = &TableScan{Table: "events"}
	if err := scan.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if err := scan.Close(); err != nil {
		t.Fatal(err)
	}
	if in := ctx.Mem.Inflight(); in != 0 {
		t.Fatalf("open/close: %d bytes still inflight", in)
	}
}

func TestStoredScanUnderBreachedBudget(t *testing.T) {
	backend := storage.NewMemory()
	defer backend.Close()
	ctx, mem := storedEventsCtx(t, backend, 20000)
	// A budget smaller than one block: every block is read over budget, and
	// the scan must neither stall nor misread.
	ctx.Mem = storage.NewBudget(1024)
	got := drain(t, &TableScan{Table: "events"}, ctx, 0)
	sameTuplesLabeled(t, "shrunk", mem.Tuples, got)
	if in := ctx.Mem.Inflight(); in != 0 {
		t.Fatalf("%d bytes still inflight", in)
	}
}

// TestTopNMatchesSortLimit pins the top-N query shape (ORDER BY ... LIMIT n),
// which compiles to Limit over Sort: its output is a stable sort of the input
// truncated to n, ties in arrival order, both unbudgeted and under a budget
// small enough that the sort spills runs. Limit stops pulling at n, and
// closing the abandoned sort must return every reservation and run.
func TestTopNMatchesSortLimit(t *testing.T) {
	backend := storage.NewMemory()
	defer backend.Close()
	ctx, mem := storedEventsCtx(t, backend, 5000)
	cases := []struct {
		name string
		ords []int
		desc []bool
		n    int64
	}{
		{"asc-ties", []int{0}, []bool{false}, 50}, // zipf keys: heavy tie traffic
		{"desc-ties", []int{0}, []bool{true}, 50},
		{"two-key", []int{0, 1}, []bool{false, true}, 25},
		{"n-one", []int{1}, []bool{false}, 1},
		{"n-exceeds-input", []int{0}, []bool{false}, 100000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := slices.Clone(mem.Tuples)
			slices.SortStableFunc(want, func(a, b relation.Tuple) int {
				for i, ord := range c.ords {
					cmp := a[ord].Compare(b[ord])
					if c.desc[i] {
						cmp = -cmp
					}
					if cmp != 0 {
						return cmp
					}
				}
				return 0
			})
			want = want[:min(int64(len(want)), c.n)]
			topN := func() Iterator {
				return &Limit{
					Child: &Sort{Child: &TableScan{Table: "events"}, Ords: c.ords, Desc: c.desc},
					N:     c.n,
				}
			}
			sameTuplesLabeled(t, c.name, want, drain(t, topN(), ctx, 0))

			spill := storage.NewMemory()
			defer spill.Close()
			bctx := *ctx
			bctx.Mem, bctx.Spill = storage.NewBudget(64<<10), spill
			runs0 := obs.Default().Counter(obs.MSpillPartitions).Value()
			sameTuplesLabeled(t, c.name+"/budgeted", want, drain(t, topN(), &bctx, 0))
			if obs.Default().Counter(obs.MSpillPartitions).Value() == runs0 {
				t.Fatal("budgeted sort never spilled a run")
			}
			if in := bctx.Mem.Inflight(); in != 0 {
				t.Fatalf("%d bytes still inflight after Close", in)
			}
			if runs, err := spill.List(); err != nil || len(runs) != 0 {
				t.Fatalf("leaked sort runs %v (%v)", runs, err)
			}
		})
	}
}

// FuzzStoredScanRoundTrip feeds arbitrary tuple sequences through a stored
// run and back out via the block scan: whatever tuple boundary lands on a
// block boundary, the batched decode must reproduce the input byte-exactly.
func FuzzStoredScanRoundTrip(f *testing.F) {
	f.Add(relation.EncodeTuple(relation.Tuple{relation.Int(7)}))
	f.Add(relation.EncodeTuple(relation.Tuple{relation.String("ORF YAL00007C"), relation.Null}))
	f.Add(bytes.Repeat(relation.EncodeTuple(relation.Tuple{relation.Float(1.5)}), 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		// The plain single-tuple decoder is the reference the scan's fused
		// block decode is held against.
		var arena relation.Arena
		var tuples []relation.Tuple
		rest := raw
		for len(rest) > 0 && len(tuples) < 512 {
			tp, tail, err := relation.DecodeTuple(&arena, rest)
			if err != nil {
				break
			}
			tuples = append(tuples, tp)
			rest = tail
		}
		if len(tuples) == 0 {
			t.Skip()
		}
		backend := storage.NewMemory()
		defer backend.Close()
		w, err := backend.Create("fuzz")
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendAll(tuples); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		scan, err := openRun(backend, "fuzz")
		if err != nil {
			t.Fatal(err)
		}
		var got []relation.Tuple
		batch := relation.NewBatch(7)
		for {
			n, err := scan.fill(batch)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			got = append(got, append([]relation.Tuple(nil), batch.Tuples...)...)
		}
		if err := scan.close(); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(tuples) {
			t.Fatalf("scanned %d of %d tuples", len(got), len(tuples))
		}
		for i := range tuples {
			if !bytes.Equal(relation.EncodeTuple(tuples[i]), relation.EncodeTuple(got[i])) {
				t.Fatalf("tuple %d changed across the stored scan", i)
			}
		}
	})
}

package engine

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
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
			for _, depth := range []int{0, -1, 1, 4} {
				ctx.Readahead = depth
				got := drain(t, &TableScan{Table: "events"}, ctx, 0)
				sameTuplesLabeled(t, name, mem.Tuples, got)
			}
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

func TestStoredScanBudgetLifecycle(t *testing.T) {
	backend, err := storage.NewPosix(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	ctx, mem := storedEventsCtx(t, backend, 20000)
	ctx.Mem = storage.NewBudget(1 << 20)

	// Full drain under budget: every in-flight reservation is returned.
	got := drain(t, &TableScan{Table: "events"}, ctx, 0)
	sameTuplesLabeled(t, "drain", mem.Tuples, got)
	if in := ctx.Mem.Inflight(); in != 0 {
		t.Fatalf("after drain: %d bytes still inflight", in)
	}

	// Cancel mid-readahead: the producer has blocks in flight; Close must
	// reclaim every reservation without leaking the goroutine.
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

	// Close with no reads at all must not start or leak anything.
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
	// A budget smaller than one block: the producer runs permanently shrunk
	// to a single in-flight block and must neither deadlock nor misread.
	ctx.Mem = storage.NewBudget(1024)
	got := drain(t, &TableScan{Table: "events"}, ctx, 0)
	sameTuplesLabeled(t, "shrunk", mem.Tuples, got)
	if in := ctx.Mem.Inflight(); in != 0 {
		t.Fatalf("%d bytes still inflight", in)
	}
}

func TestTopNMatchesSortLimit(t *testing.T) {
	backend := storage.NewMemory()
	defer backend.Close()
	ctx, _ := storedEventsCtx(t, backend, 5000)
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
			want := drain(t, &Limit{
				Child: &Sort{Child: &TableScan{Table: "events"}, Ords: c.ords, Desc: c.desc},
				N:     c.n,
			}, ctx, 0)
			got := drain(t, &TopN{
				Child: &TableScan{Table: "events"},
				Ords:  c.ords, Desc: c.desc, N: c.n,
			}, ctx, 0)
			sameTuplesLabeled(t, c.name, want, got)
		})
	}
}

func TestTopNBudgetRelease(t *testing.T) {
	backend := storage.NewMemory()
	defer backend.Close()
	ctx, _ := storedEventsCtx(t, backend, 5000)
	ctx.Mem = storage.NewBudget(1 << 30)
	top := &TopN{Child: &TableScan{Table: "events"}, Ords: []int{0}, Desc: []bool{false}, N: 100}
	if err := top.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if n, err := top.NextBatch(relation.NewBatch(1)); err != nil || n != 1 {
		t.Fatalf("first row: n=%d err=%v", n, err)
	}
	if ctx.Mem.Inflight() == 0 {
		t.Fatal("TopN retained state is not accounted")
	}
	// Abandon mid-emit: Close must return every reservation.
	if err := top.Close(); err != nil {
		t.Fatal(err)
	}
	if in := ctx.Mem.Inflight(); in != 0 {
		t.Fatalf("%d bytes still inflight after Close", in)
	}
}

// FuzzStoredScanRoundTrip feeds arbitrary tuple sequences through a stored
// run and back out via the block scan: whatever tuple boundary lands on a
// block boundary, the batched decode must reproduce the input byte-exactly
// in every readahead mode.
func FuzzStoredScanRoundTrip(f *testing.F) {
	f.Add(relation.EncodeTuple(relation.Tuple{relation.Int(7)}), 0)
	f.Add(relation.EncodeTuple(relation.Tuple{relation.String("ORF YAL00007C"), relation.Null}), -1)
	f.Add(bytes.Repeat(relation.EncodeTuple(relation.Tuple{relation.Float(1.5)}), 64), 4)
	f.Fuzz(func(t *testing.T, raw []byte, depth int) {
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
		br, err := backend.OpenBlocks("fuzz")
		if err != nil {
			t.Fatal(err)
		}
		ctx := testCtx()
		ctx.Readahead = depth%5 - 1 // [-1, 3]: sync plus several depths
		scan := newBlockScan(ctx, br, nil)
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

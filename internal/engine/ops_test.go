package engine

import (
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/relation"
	"repro/internal/scalar"
	"repro/internal/simnet"
	"repro/internal/vtime"
	"repro/internal/ws"
)

// testCtx builds an ExecContext on a fresh unperturbed node with a fast
// clock and the demo store/services.
func testCtx() *ExecContext {
	clock := vtime.NewClock(100 * time.Nanosecond)
	return &ExecContext{
		Clock:    clock,
		Node:     simnet.NewNode("test"),
		Meter:    vtime.NewMeter(clock),
		Store:    dataset.DemoSized(50, 80),
		Services: ws.NewRegistry(ws.Entropy{}, ws.SequenceLength{}),
		Costs:    DefaultCosts(),
		Buckets:  64,
	}
}

// drain opens an iterator, pulls it to completion and closes it. limit > 0
// clamps the pull width with Batch.SetLimit (1 = one tuple per NextBatch, the
// finest grain a caller can ask for); 0 pulls at the default batch width.
func drain(t testing.TB, it Iterator, ctx *ExecContext, limit int) []relation.Tuple {
	t.Helper()
	if err := it.Open(ctx); err != nil {
		t.Fatalf("Open: %v", err)
	}
	out := pullAll(t, it, limit)
	if err := it.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return out
}

// pullAll is drain's middle: it pulls an already open iterator to end of
// stream, for tests that script state changes between Open and the pull.
func pullAll(t testing.TB, it Iterator, limit int) []relation.Tuple {
	t.Helper()
	batch := relation.GetBatch()
	defer batch.Release()
	batch.SetLimit(limit)
	var out []relation.Tuple
	for {
		n, err := it.NextBatch(batch)
		if err != nil {
			t.Fatalf("NextBatch: %v", err)
		}
		if n == 0 {
			return out
		}
		out = append(out, batch.Tuples...)
	}
}

func TestTableScan(t *testing.T) {
	ctx := testCtx()
	out := drain(t, &TableScan{Table: "protein_sequences"}, ctx, 0)
	if len(out) != 50 {
		t.Fatalf("scanned %d tuples, want 50", len(out))
	}
	if ctx.Meter.ChargedMs() < 50*ctx.Costs.ScanMs {
		t.Error("scan cost not charged")
	}
}

func TestTableScanErrors(t *testing.T) {
	ctx := testCtx()
	if err := (&TableScan{Table: "missing"}).Open(ctx); err == nil {
		t.Error("missing table accepted")
	}
	noStore := testCtx()
	noStore.Store = nil
	if err := (&TableScan{Table: "protein_sequences"}).Open(noStore); err == nil {
		t.Error("scan without store accepted")
	}
}

func TestSelect(t *testing.T) {
	ctx := testCtx()
	pred, err := scalar.Compare(
		scalar.Col(0, relation.TString, "ORF"), scalar.Eq,
		scalar.Const(relation.String("YAL00007C")))
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, &Select{Child: &TableScan{Table: "protein_sequences"}, Pred: pred}, ctx, 0)
	if len(out) != 1 || out[0][0].AsString() != "YAL00007C" {
		t.Fatalf("filter result: %d tuples", len(out))
	}
}

func TestProject(t *testing.T) {
	ctx := testCtx()
	out := drain(t, &Project{Child: &TableScan{Table: "protein_interactions"}, Ords: []int{1}}, ctx, 0)
	if len(out) != 80 || len(out[0]) != 1 {
		t.Fatalf("project: %d tuples, width %d", len(out), len(out[0]))
	}
}

func TestOperationCall(t *testing.T) {
	ctx := testCtx()
	op := &OperationCall{
		Fn:      "EntropyAnalyser",
		ArgOrds: []int{1},
		Child:   &TableScan{Table: "protein_sequences"},
	}
	out := drain(t, op, ctx, 0)
	if len(out) != 50 {
		t.Fatalf("%d tuples", len(out))
	}
	for _, tp := range out {
		if len(tp) != 3 {
			t.Fatal("result column not appended")
		}
		h := tp[2].AsFloat()
		if h <= 0 || h > 8 {
			t.Fatalf("entropy out of range: %v", h)
		}
	}
}

func TestOperationCallPerturbed(t *testing.T) {
	// A 10x perturbation must make the charged cost ~10x higher.
	base := testCtx()
	baseOut := drain(t, &OperationCall{Fn: "EntropyAnalyser", ArgOrds: []int{1},
		Child: &TableScan{Table: "protein_sequences"}}, base, 0)
	baseCost := base.Meter.ChargedMs()

	pert := testCtx()
	pert.Node.SetPerturbation(vtime.Multiplier(10))
	drain(t, &OperationCall{Fn: "EntropyAnalyser", ArgOrds: []int{1},
		Child: &TableScan{Table: "protein_sequences"}}, pert, 0)
	pertCost := pert.Meter.ChargedMs()

	if len(baseOut) != 50 {
		t.Fatal("base run wrong")
	}
	ratio := pertCost / baseCost
	// Scan cost is also perturbed on the node; ratio must be close to 10.
	if ratio < 8 || ratio > 10.5 {
		t.Fatalf("cost ratio = %v, want ~10", ratio)
	}
}

func TestOperationCallErrors(t *testing.T) {
	ctx := testCtx()
	if err := (&OperationCall{Fn: "nope", Child: NewSliceSource(nil, 0)}).Open(ctx); err == nil {
		t.Error("unknown service accepted")
	}
	noSvc := testCtx()
	noSvc.Services = nil
	if err := (&OperationCall{Fn: "EntropyAnalyser", Child: NewSliceSource(nil, 0)}).Open(noSvc); err == nil {
		t.Error("nil registry accepted")
	}
	// Invocation error propagates: wrong arg type.
	bad := &OperationCall{Fn: "EntropyAnalyser", ArgOrds: []int{0},
		Child: NewSliceSource([]relation.Tuple{{relation.Int(3)}}, 0)}
	if err := bad.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := bad.NextBatch(relation.NewBatch(1)); err == nil {
		t.Error("invocation error swallowed")
	}
}

func TestSliceSource(t *testing.T) {
	ctx := testCtx()
	src := NewSliceSource([]relation.Tuple{{relation.Int(1)}, {relation.Int(2)}}, 1)
	out := drain(t, src, ctx, 0)
	if len(out) != 2 {
		t.Fatalf("%d tuples", len(out))
	}
}

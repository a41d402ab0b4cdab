package engine

import (
	"math"
	"sort"
	"testing"

	"repro/internal/logical"
	"repro/internal/relation"
	"repro/internal/scalar"
	"repro/internal/ws"
)

// The tests below pin "batch width never changes rows or charged work". Each
// plan is drained at several widths; the width-1 drain (one tuple per
// NextBatch) is the reference the wider drains must reproduce tuple for
// tuple, and a closed-form expectation computed in plain Go from the demo
// tables says what all of them must contain — so the check does not rest on
// the operators agreeing with themselves.

// sameTuples compares two result sets element by element.
func sameTuples(t *testing.T, got, want []relation.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("produced %d tuples, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("tuple %d: %v != reference %v", i, got[i], want[i])
		}
	}
}

// demoTable returns the in-memory tuples of one testCtx demo table.
func demoTable(t *testing.T, name string) []relation.Tuple {
	t.Helper()
	tbl, err := testCtx().Store.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tbl.Tuples
}

// excludedORF is the key the scan→filter→project plan filters out.
const excludedORF = "YAL00007C"

// scanSelectProject builds scan(protein_sequences) → ORF != excludedORF →
// project(ORF).
func scanSelectProject(t *testing.T) Iterator {
	t.Helper()
	pred, err := scalar.Compare(
		scalar.Col(0, relation.TString, "ORF"), scalar.Ne,
		scalar.Const(relation.String(excludedORF)))
	if err != nil {
		t.Fatal(err)
	}
	return &Project{
		Child: &Select{Child: &TableScan{Table: "protein_sequences"}, Pred: pred},
		Ords:  []int{0},
	}
}

// scanSelectProjectRows is the plan's closed-form result.
func scanSelectProjectRows(t *testing.T) []relation.Tuple {
	var want []relation.Tuple
	for _, tp := range demoTable(t, "protein_sequences") {
		if tp[0].AsString() != excludedORF {
			want = append(want, relation.Tuple{tp[0]})
		}
	}
	return want
}

func TestBatchEquivalenceScanSelectProject(t *testing.T) {
	ref := drain(t, scanSelectProject(t), testCtx(), 1)
	sameTuples(t, ref, scanSelectProjectRows(t))
	sameTuples(t, drain(t, scanSelectProject(t), testCtx(), 0), ref)
}

func TestBatchEquivalenceSmallBatches(t *testing.T) {
	// A tiny batch limit exercises the operators' partial-batch and
	// carry-over paths (Select draining across input batches, overflow).
	ref := drain(t, scanSelectProject(t), testCtx(), 1)
	sameTuples(t, drain(t, scanSelectProject(t), testCtx(), 3), ref)
}

func TestBatchEquivalenceJoin(t *testing.T) {
	mk := func() Iterator {
		return &HashJoin{
			Build:     &TableScan{Table: "protein_sequences"},
			Probe:     &TableScan{Table: "protein_interactions"},
			BuildKeys: []int{0},
			ProbeKeys: []int{0},
		}
	}
	// Batch size 1 forces the join's pending-overflow path on every multi-
	// match probe tuple.
	ref := drain(t, mk(), testCtx(), 1)
	if len(ref) == 0 {
		t.Fatal("join produced nothing")
	}
	var want []relation.Tuple
	for _, p := range demoTable(t, "protein_interactions") {
		for _, b := range demoTable(t, "protein_sequences") {
			if b[0].Equal(p[0]) {
				want = append(want, append(b.Clone(), p...))
			}
		}
	}
	// Hash operators emit in table-internal order, which the closed form
	// does not model: compare as multisets (spill_test.go's helper).
	sameMultiset(t, ref, want)
	sameTuples(t, drain(t, mk(), testCtx(), 0), ref)
}

func TestBatchEquivalenceAggregate(t *testing.T) {
	mk := func() Iterator {
		return &HashAggregate{
			Child:     &TableScan{Table: "protein_interactions"},
			GroupOrds: []int{0},
			Kinds:     []logical.AggKind{logical.AggCount},
			ArgOrds:   []int{-1},
		}
	}
	ref := drain(t, mk(), testCtx(), 1)
	counts := map[string]int64{}
	for _, tp := range demoTable(t, "protein_interactions") {
		counts[tp[0].AsString()]++
	}
	var want []relation.Tuple
	for k, n := range counts {
		want = append(want, relation.Tuple{relation.String(k), relation.Int(n)})
	}
	sameMultiset(t, ref, want)
	sameTuples(t, drain(t, mk(), testCtx(), 0), ref)
}

func TestBatchEquivalenceOperationCall(t *testing.T) {
	mk := func() Iterator {
		return &OperationCall{
			Fn:      "EntropyAnalyser",
			ArgOrds: []int{1},
			Child:   &TableScan{Table: "protein_sequences"},
		}
	}
	ref := drain(t, mk(), testCtx(), 1)
	var want []relation.Tuple
	for _, tp := range demoTable(t, "protein_sequences") {
		h, err := ws.Entropy{}.Invoke([]relation.Value{tp[1]})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, append(append(relation.Tuple{}, tp...), h))
	}
	sameTuples(t, ref, want)
	sameTuples(t, drain(t, mk(), testCtx(), 0), ref)
}

// TestFillBatchAdapter drives a blocking operator through FillBatch, the
// entry point kept for callers outside the package, at a width that divides
// neither the input nor the default batch: Sort must buffer whole child
// batches and still emit seven rows at a time in order.
func TestFillBatchAdapter(t *testing.T) {
	mk := func() Iterator {
		return &Sort{
			Child: &TableScan{Table: "protein_sequences"},
			Ords:  []int{0},
			Desc:  []bool{true},
		}
	}
	ref := drain(t, mk(), testCtx(), 1)
	want := append([]relation.Tuple(nil), demoTable(t, "protein_sequences")...)
	sort.SliceStable(want, func(i, j int) bool { return want[i][0].AsString() > want[j][0].AsString() })
	sameTuples(t, ref, want)

	it := mk()
	if err := it.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	batch := relation.NewBatch(7)
	var got []relation.Tuple
	for {
		n, err := FillBatch(it, batch)
		if err != nil {
			t.Fatalf("FillBatch: %v", err)
		}
		if n == 0 {
			break
		}
		if n > 7 {
			t.Fatalf("FillBatch returned %d tuples into a batch of 7", n)
		}
		got = append(got, batch.Tuples...)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	sameTuples(t, got, ref)
}

// TestBatchCostParity verifies batch width does not change charged work: on
// an unperturbed node every width must bill the closed-form sum of the
// plan's per-tuple base costs.
func TestBatchCostParity(t *testing.T) {
	costs := DefaultCosts()
	var want float64
	for _, tp := range demoTable(t, "protein_sequences") {
		want += costs.ScanMs + costs.ScanByteMs*float64(tp.ByteSize()) + costs.FilterMs
	}
	want += costs.ProjectMs * float64(len(scanSelectProjectRows(t)))
	for _, width := range []int{1, 3, 0} {
		ctx := testCtx()
		drain(t, scanSelectProject(t), ctx, width)
		ctx.Meter.Flush()
		// Identical per-tuple charges, summed in a different order: only
		// float-rounding noise may differ.
		if got := ctx.Meter.ChargedMs(); math.Abs(got-want) > 1e-9 {
			t.Fatalf("width %d charged %v ms, closed form %v ms", width, got, want)
		}
	}
}

// countingSink records M1 emissions.
type countingSink struct{ m1 []M1Event }

func (s *countingSink) EmitM1(e M1Event) { s.m1 = append(s.m1, e) }
func (s *countingSink) EmitM2(M2Event)   {}

func TestBatchLimitClampsToMonitorWindow(t *testing.T) {
	ctx := testCtx()
	if got := batchLimit(ctx, 256); got != 256 {
		t.Fatalf("unmonitored batchLimit = %d, want 256", got)
	}
	ctx.Monitor = &countingSink{}
	ctx.MonitorEvery = 10
	if got := batchLimit(ctx, 256); got != 10 {
		t.Fatalf("monitored batchLimit = %d, want 10", got)
	}
	if got := batchLimit(ctx, 4); got != 4 {
		t.Fatalf("small-default batchLimit = %d, want 4", got)
	}
}

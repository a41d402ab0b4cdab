package engine

import (
	"fmt"
	"testing"

	"repro/internal/logical"
	"repro/internal/relation"
)

// aggInput builds (k, v) tuples: key K{i%keys}, value i.
func aggInput(n, keys int) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := range out {
		out[i] = relation.Tuple{
			relation.String(fmt.Sprintf("K%02d", i%keys)),
			relation.Int(int64(i)),
		}
	}
	return out
}

func newAgg(input []relation.Tuple, groupOrds []int, kinds []logical.AggKind, args []int) *HashAggregate {
	return &HashAggregate{
		Child:     NewSliceSource(input, 0),
		GroupOrds: groupOrds,
		Kinds:     kinds,
		ArgOrds:   args,
	}
}

func TestHashAggregateCountPerGroup(t *testing.T) {
	ctx := testCtx()
	agg := newAgg(aggInput(100, 4), []int{0},
		[]logical.AggKind{logical.AggCount}, []int{-1})
	out := drain(t, agg, ctx, 0)
	if len(out) != 4 {
		t.Fatalf("groups = %d, want 4", len(out))
	}
	for _, row := range out {
		if row[1].AsInt() != 25 {
			t.Fatalf("count = %v, want 25 (row %v)", row[1], row.Format())
		}
	}
}

func TestHashAggregateAllKinds(t *testing.T) {
	ctx := testCtx()
	// Key K00 gets values 0,3,6,...,27 (10 values).
	agg := newAgg(aggInput(30, 3), []int{0},
		[]logical.AggKind{logical.AggCount, logical.AggSum, logical.AggAvg, logical.AggMin, logical.AggMax},
		[]int{-1, 1, 1, 1, 1})
	out := drain(t, agg, ctx, 0)
	if len(out) != 3 {
		t.Fatalf("groups = %d", len(out))
	}
	// Output is sorted by group key; K00 first.
	row := out[0]
	if row[0].AsString() != "K00" {
		t.Fatalf("first group = %v", row[0])
	}
	if row[1].AsInt() != 10 {
		t.Errorf("count = %v", row[1])
	}
	if row[2].AsFloat() != 135 { // 0+3+...+27
		t.Errorf("sum = %v", row[2])
	}
	if row[3].AsFloat() != 13.5 {
		t.Errorf("avg = %v", row[3])
	}
	if row[4].AsInt() != 0 || row[5].AsInt() != 27 {
		t.Errorf("min/max = %v/%v", row[4], row[5])
	}
}

func TestHashAggregateGlobal(t *testing.T) {
	ctx := testCtx()
	agg := newAgg(aggInput(50, 5), nil,
		[]logical.AggKind{logical.AggCount, logical.AggSum}, []int{-1, 1})
	out := drain(t, agg, ctx, 0)
	if len(out) != 1 {
		t.Fatalf("global aggregate rows = %d", len(out))
	}
	if out[0][0].AsInt() != 50 || out[0][1].AsFloat() != 1225 {
		t.Fatalf("row = %v", out[0].Format())
	}
}

func TestHashAggregateGlobalEmptyInput(t *testing.T) {
	ctx := testCtx()
	agg := newAgg(nil, nil,
		[]logical.AggKind{logical.AggCount, logical.AggSum, logical.AggMin}, []int{-1, 1, 1})
	out := drain(t, agg, ctx, 0)
	if len(out) != 1 {
		t.Fatalf("rows = %d, want 1 (COUNT over empty input is 0)", len(out))
	}
	if out[0][0].AsInt() != 0 || !out[0][1].IsNull() || !out[0][2].IsNull() {
		t.Fatalf("row = %v", out[0].Format())
	}
}

func TestHashAggregateGroupedEmptyInput(t *testing.T) {
	ctx := testCtx()
	agg := newAgg(nil, []int{0}, []logical.AggKind{logical.AggCount}, []int{-1})
	out := drain(t, agg, ctx, 0)
	if len(out) != 0 {
		t.Fatalf("grouped aggregate over empty input must emit nothing, got %d", len(out))
	}
}

func TestHashAggregateNullsSkipped(t *testing.T) {
	ctx := testCtx()
	input := []relation.Tuple{
		{relation.String("K"), relation.Int(5)},
		{relation.String("K"), relation.Null},
		{relation.String("K"), relation.Int(7)},
	}
	agg := newAgg(input, []int{0},
		[]logical.AggKind{logical.AggCount, logical.AggCount, logical.AggAvg},
		[]int{-1, 1, 1})
	out := drain(t, agg, ctx, 0)
	row := out[0]
	if row[1].AsInt() != 3 { // COUNT(*) counts NULL rows
		t.Errorf("count(*) = %v", row[1])
	}
	if row[2].AsInt() != 2 { // COUNT(v) skips NULL
		t.Errorf("count(v) = %v", row[2])
	}
	if row[3].AsFloat() != 6 {
		t.Errorf("avg = %v", row[3])
	}
}

func TestHashAggregateEvictReplay(t *testing.T) {
	ctx := testCtx()
	input := aggInput(200, 8)
	agg := newAgg(input, []int{0}, []logical.AggKind{logical.AggCount, logical.AggSum}, []int{-1, 1})
	if err := agg.Open(ctx); err != nil {
		t.Fatal(err)
	}
	// Absorb half the input manually, evict some buckets, replay exactly the
	// evicted tuples (as the recovery log would), then absorb the rest.
	for _, tp := range input[:100] {
		agg.absorb(tp)
	}
	var evict []int32
	seen := map[int32]bool{}
	for _, tp := range input[:40] {
		b := int32(tp.Hash([]int{0}) % uint64(ctx.Buckets))
		if !seen[b] {
			seen[b] = true
			evict = append(evict, b)
		}
	}
	agg.EvictBuckets(evict)
	var replay []relation.Tuple
	for _, tp := range input[:100] {
		b := int32(tp.Hash([]int{0}) % uint64(ctx.Buckets))
		if seen[b] {
			replay = append(replay, tp)
		}
	}
	agg.InsertState(replay)
	for _, tp := range input[100:] {
		agg.absorb(tp)
	}
	agg.shared.mergeAndFreeze(agg)
	totalCount := int64(0)
	totalSum := 0.0
	for _, row := range agg.shared.out {
		totalCount += row[1].AsInt()
		totalSum += row[2].AsFloat()
	}
	if totalCount != 200 {
		t.Fatalf("total count after evict+replay = %d, want 200", totalCount)
	}
	if totalSum != 19900 { // 0+1+...+199
		t.Fatalf("total sum = %v, want 19900", totalSum)
	}
	if agg.StateSize() != 8 {
		t.Fatalf("groups = %d, want 8", agg.StateSize())
	}
}

func TestSortOperator(t *testing.T) {
	ctx := testCtx()
	input := []relation.Tuple{
		{relation.String("b"), relation.Int(2)},
		{relation.String("a"), relation.Int(3)},
		{relation.String("b"), relation.Int(1)},
		{relation.String("a"), relation.Int(1)},
	}
	s := &Sort{Child: NewSliceSource(input, 0), Ords: []int{0, 1}, Desc: []bool{false, true}}
	out := drain(t, s, ctx, 0)
	want := []string{"(a, 3)", "(a, 1)", "(b, 2)", "(b, 1)"}
	for i, row := range out {
		if row.Format() != want[i] {
			t.Fatalf("row %d = %s, want %s", i, row.Format(), want[i])
		}
	}
}

func TestLimitOperator(t *testing.T) {
	ctx := testCtx()
	// At every pull width — including ones that do not divide N — LIMIT
	// returns exactly N rows and its child is never asked for row N+1.
	for _, width := range []int{0, 1, 3} {
		src := NewSliceSource(aggInput(100, 10), 0).(*sliceIterator)
		out := drain(t, &Limit{Child: src, N: 7}, ctx, width)
		if len(out) != 7 {
			t.Fatalf("width %d: rows = %d, want 7", width, len(out))
		}
		if src.pos != 7 {
			t.Fatalf("width %d: LIMIT 7 drained %d tuples from its child", width, src.pos)
		}
	}
	// The clamp lasts one call: the caller's batch keeps its own width.
	l := &Limit{Child: NewSliceSource(aggInput(100, 10), 0), N: 7}
	if err := l.Open(ctx); err != nil {
		t.Fatal(err)
	}
	batch := relation.NewBatch(16)
	if n, err := l.NextBatch(batch); err != nil || n != 7 || batch.Cap() != 16 {
		t.Fatalf("n=%d err=%v cap=%d, want 7 rows and an unclamped batch of 16", n, err, batch.Cap())
	}
	zero := &Limit{Child: NewSliceSource(aggInput(10, 2), 0), N: 0}
	if out := drain(t, zero, ctx, 0); len(out) != 0 {
		t.Fatalf("LIMIT 0 returned %d rows", len(out))
	}
}

func TestAggKindsOfValidation(t *testing.T) {
	if _, err := aggKindsOf([]uint8{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := aggKindsOf([]uint8{0}); err == nil {
		t.Error("kind 0 accepted")
	}
	if _, err := aggKindsOf([]uint8{99}); err == nil {
		t.Error("kind 99 accepted")
	}
}

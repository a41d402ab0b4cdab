package engine

import (
	"fmt"
	"testing"

	"repro/internal/logical"
	"repro/internal/obs"
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
	bucketOf := func(tp relation.Tuple) int32 { return int32(tp.Hash([]int{0}) % uint64(ctx.Buckets)) }
	// StateSize must equal the number of live groups after every step: the
	// worker table's plus the final table's (a group replayed into the final
	// table and met again by the worker is held twice until the merge).
	groups := func(ts []relation.Tuple) int {
		distinct := map[string]bool{}
		for _, tp := range ts {
			distinct[tp[0].AsString()] = true
		}
		return len(distinct)
	}
	step := func(what string, want int) {
		t.Helper()
		if got := agg.StateSize(); got != want {
			t.Fatalf("after %s: StateSize = %d, want %d live groups", what, got, want)
		}
	}
	// Absorb half the input manually, evict some buckets, replay exactly the
	// evicted tuples (as the recovery log would), then absorb the rest.
	agg.absorb(input[:100])
	step("absorbing half", 8)
	evicted := map[int32]bool{}
	var evict []int32
	for _, tp := range input[:3] {
		if b := bucketOf(tp); !evicted[b] {
			evicted[b] = true
			evict = append(evict, b)
		}
	}
	var replay []relation.Tuple
	for _, tp := range input[:100] {
		if evicted[bucketOf(tp)] {
			replay = append(replay, tp)
		}
	}
	agg.EvictBuckets(evict)
	step("evicting", 8-groups(replay))
	agg.InsertState(replay)
	step("replaying", 8)
	agg.absorb(input[100:])
	step("absorbing the rest", 8+groups(replay))
	agg.shared.mergeAndFreeze(agg)
	step("freezing", 8)
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
	// A replay that finds the output frozen cannot be absorbed: it is counted.
	dropped := obs.Default().Counter(obs.MAggReplayDropped)
	before := dropped.Value()
	agg.InsertState(replay)
	if got := dropped.Value() - before; got != int64(len(replay)) {
		t.Fatalf("replay into a frozen aggregate counted %d dropped tuples, want %d", got, len(replay))
	}
	step("a dropped replay", 8)
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}
	if got := agg.StateSize(); got != 0 {
		t.Fatalf("StateSize = %d after Close", got)
	}
}

// TestHashAggregateAllocationCeiling pins what the slab layout buys: a group
// is not a heap object. The small case guards the other end — a three-group
// aggregate must not pay for slabs it never fills (it took 65 allocations
// when every group was a heap object; it takes 33 now).
func TestHashAggregateAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the production build's under -race")
	}
	ctx := testCtx()
	ctx.Costs = Costs{}
	run := func(input []relation.Tuple) float64 {
		return testing.AllocsPerRun(5, func() {
			drain(t, newAgg(input, []int{0}, []logical.AggKind{logical.AggCount}, []int{-1}), ctx, 0)
		})
	}
	big := make([]relation.Tuple, 20000)
	for i := range big {
		big[i] = relation.Tuple{relation.String(fmt.Sprintf("YAL%05dC", i%10000)), relation.Int(int64(i))}
	}
	if perGroup := run(big) / 10000; perGroup >= 0.5 {
		t.Errorf("%.2f heap objects per group, want < 0.5", perGroup)
	}
	if small := run(aggInput(30, 3)); small > 65 {
		t.Errorf("a 3-group aggregate allocates %.0f objects, want <= 65", small)
	}
}

// BenchmarkHashAggregate is the operator's inner loop at the analytic
// workload's cardinality: 47 000 join rows into ~23 000 string-keyed groups,
// COUNT(*), serially and through two worker clones.
func BenchmarkHashAggregate(b *testing.B) {
	input := make([]relation.Tuple, 47000)
	for i := range input {
		input[i] = relation.Tuple{relation.String(fmt.Sprintf("YAL%05dC", i*7919%23000)), relation.Int(int64(i))}
	}
	ctx := testCtx()
	ctx.Costs = Costs{} // measure the data structure, not the cost model
	for _, width := range []int{1, 2} {
		b.Run(fmt.Sprintf("w%d", width), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				base := newAgg(nil, []int{0}, []logical.AggKind{logical.AggCount}, []int{-1})
				base.SetWorkers(width)
				share := len(input) / width
				out := runCloneWorkers(b, ctx, width, func(w int) Iterator {
					return base.WorkerClone(NewSliceSource(input[w*share:(w+1)*share], 0))
				})
				if len(out) != 23000 {
					b.Fatalf("groups = %d, want 23000", len(out))
				}
			}
		})
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

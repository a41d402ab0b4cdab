package engine

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/logical"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/testenv"
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
	// StateSize must equal the number of live groups after every step.
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
	absorb := func(ts []relation.Tuple) {
		t.Helper()
		if err := agg.absorb(ts); err != nil {
			t.Fatal(err)
		}
	}
	absorb(input[:100])
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
	absorb(input[100:])
	step("absorbing the rest", 8)
	if err := agg.st.freeze(agg); err != nil {
		t.Fatal(err)
	}
	step("freezing", 8)
	totalCount := int64(0)
	totalSum := 0.0
	for _, row := range agg.st.out {
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

// TestHashAggregateAllocationCeiling pins what the chunked layout buys: a
// group is not a heap object, a partition's chunks are O(log groups) objects
// that are never copied, and a three-group aggregate pays for three groups —
// no more objects (33) and no more bytes (5 330) than when the slabs grew by
// append and the freeze copied every row.
func TestHashAggregateAllocationCeiling(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not the production build's under -race")
	}
	ctx := testCtx()
	ctx.Costs = Costs{}
	run := func(input []relation.Tuple) func() {
		return func() {
			drain(t, newAgg(input, []int{0}, []logical.AggKind{logical.AggCount}, []int{-1}), ctx, 0)
		}
	}
	big := make([]relation.Tuple, 20000)
	for i := range big {
		big[i] = relation.Tuple{relation.String(fmt.Sprintf("YAL%05dC", i%10000)), relation.Int(int64(i))}
	}
	if perGroup := testing.AllocsPerRun(5, run(big)) / 10000; perGroup >= 0.5 {
		t.Errorf("%.2f heap objects per group, want < 0.5", perGroup)
	}
	small := run(aggInput(30, 3))
	if n := testing.AllocsPerRun(5, small); n > 33 {
		t.Errorf("a 3-group aggregate allocates %.0f objects, want <= 33", n)
	}
	if b := bytesPerRun(5, small); b > 5330 {
		t.Errorf("a 3-group aggregate allocates %.0f bytes, want <= 5330", b)
	}
	// One partition's own objects — its chunks and their directory; the
	// chain map is reused, so that only they count — grow with the number
	// of chunks, about 2.5 per doubling of its groups. Slabs grown by append
	// took three objects per 1.25x.
	for _, n := range []int{1, 8, 9, 24, 25, 4096} {
		chains := make(map[uint64]chainRef, n)
		allocs := testing.AllocsPerRun(5, func() {
			clear(chains)
			p := aggPart{chains: chains}
			for i := 0; i < n; i++ {
				p.group(uint64(i), relation.Tuple{relation.Int(int64(i))}, []int{0}, 2)
			}
		})
		chunks, _ := chunkOf(int32(n - 1))
		if want := 3*float64(chunks+1) + 2; allocs > want {
			t.Errorf("%d groups in one partition took %.0f objects, want <= %.0f (%d chunks)", n, allocs, want, chunks+1)
		}
	}
}

// TestAggPartHashCollisions puts groups of distinct keys on one 64-bit hash
// — one chain, linked through next, which real input all but never makes —
// across chunk 0's end, and checks that each is found again, walked once,
// folded group by group and unlinked with its chain.
func TestAggPartHashCollisions(t *testing.T) {
	const h = 42
	kinds := []logical.AggKind{logical.AggCount, logical.AggMax}
	keyOrds := []int{0}
	fill := func(p *aggPart, from, to int) {
		for i := from; i < to; i++ {
			row, accs, created := p.group(h, relation.Tuple{relation.Int(int64(i))}, keyOrds, len(kinds))
			if !created {
				t.Fatalf("key %d found before it was added", i)
			}
			accs[0].count, row[2] = 1, relation.Int(int64(i))
		}
	}
	var src, dst aggPart
	fill(&src, 0, 20)
	for i := 0; i < 20; i++ {
		row, _, created := src.group(h, relation.Tuple{relation.Int(int64(i))}, keyOrds, len(kinds))
		if created || row[0].AsInt() != int64(i) {
			t.Fatalf("key %d: created %v, found %s", i, created, row.Format())
		}
	}
	fill(&dst, 10, 30)
	for g, i := src.chains[h].head, src.chains[h].n; i > 0; g, i = src.next[g], i-1 {
		row, accs := src.slot(g, 3, 2)
		mergeGroup(&dst, h, row, accs, keyOrds, kinds)
	}
	seen := map[int64]bool{}
	for g, i := dst.chains[h].head, dst.chains[h].n; i > 0; g, i = dst.next[g], i-1 {
		row, accs := dst.slot(g, 3, 2)
		k := row[0].AsInt()
		want := int64(1)
		if k >= 10 && k < 20 {
			want = 2
		}
		if seen[k] || accs[0].count != want || row[2].AsInt() != k {
			t.Errorf("group %s: count %d, seen before %v; want count %d once", row.Format(), accs[0].count, seen[k], want)
		}
		seen[k] = true
	}
	if len(seen) != 30 || dst.live != 30 {
		t.Fatalf("walked %d groups, live %d, want 30", len(seen), dst.live)
	}
	if n := unlinkBucket(dst.chains, int32(h%64), 64); n != 30 {
		t.Fatalf("unlinking the bucket dropped %d groups, want 30", n)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average heap bytes f
// allocates, after one warm-up run.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// keysPerPartition returns Int keys 0, 1, 2, ..., skipping some, so that each
// partition of a group table over the given number of buckets holds exactly
// n of them.
func keysPerPartition(n, buckets int) []int64 {
	held := make([]int, joinPartitions)
	var keys []int64
	for k := int64(0); len(keys) < n*joinPartitions; k++ {
		p := int(relation.Tuple{relation.Int(k)}.Hash([]int{0})%uint64(buckets)) % joinPartitions
		if held[p] < n {
			held[p]++
			keys = append(keys, k)
		}
	}
	return keys
}

// refAggregate is the reference the chunk-boundary test compares against:
// COUNT(*), SUM, AVG, MIN and MAX of column 1 by the Int key in column 0,
// computed with a map, ascending by key.
func refAggregate(input []relation.Tuple) []relation.Tuple {
	type acc struct {
		rows, n  int64
		sum      float64
		min, max relation.Value
	}
	by := map[int64]*acc{}
	for _, tp := range input {
		a := by[tp[0].AsInt()]
		if a == nil {
			a = &acc{}
			by[tp[0].AsInt()] = a
		}
		a.rows++
		if v := tp[1]; !v.IsNull() {
			a.n++
			a.sum += v.AsFloat()
			if a.min.IsNull() || v.Compare(a.min) < 0 {
				a.min = v
			}
			if a.max.IsNull() || v.Compare(a.max) > 0 {
				a.max = v
			}
		}
	}
	var out []relation.Tuple
	for k, a := range by {
		sum, avg := relation.Null, relation.Null
		if a.n > 0 {
			sum, avg = relation.Float(a.sum), relation.Float(a.sum/float64(a.n))
		}
		out = append(out, relation.Tuple{relation.Int(k), relation.Int(a.rows), sum, avg, a.min, a.max})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0].AsInt() < out[j][0].AsInt() })
	return out
}

// runAggHooked runs base over input. Once it has absorbed the first at
// tuples, r1 (when set) runs between two batches. The frozen rows come back
// ascending by key.
func runAggHooked(t *testing.T, ctx *ExecContext, base *HashAggregate, input []relation.Tuple, at int, r1 func()) []relation.Tuple {
	t.Helper()
	base.Child = &hookSource{tuples: input, at: at, hook: r1}
	return drain(t, base, ctx, 0)
}

// TestHashAggregateChunkBoundaries fills every partition to just below, at
// and just past the ends of chunks 0 and 1, and to ~4 096 groups, and drives
// each table through an R1 evict and replay and through dumps and their
// reload: the frozen rows must be byte-equal to a map-based reference.
func TestHashAggregateChunkBoundaries(t *testing.T) {
	kinds := []logical.AggKind{logical.AggCount, logical.AggSum, logical.AggAvg, logical.AggMin, logical.AggMax}
	args := []int{-1, 1, 1, 1, 1}
	const buckets = 64 // testCtx's
	for _, perPart := range []int{7, 8, 9, 23, 24, 25, 4096} {
		keys := keysPerPartition(perPart, buckets)
		// Each key's first row, then its second, then a NULL argument for
		// every third key.
		var first, rest []relation.Tuple
		for _, k := range keys {
			first = append(first, relation.Tuple{relation.Int(k), relation.Int(2 * k)})
			rest = append(rest, relation.Tuple{relation.Int(k), relation.Int(-k)})
			if k%3 == 0 {
				rest = append(rest, relation.Tuple{relation.Int(k), relation.Null})
			}
		}
		input := append(append([]relation.Tuple(nil), first...), rest...)
		want := refAggregate(input)
		var stateBytes int64
		for _, row := range want {
			stateBytes += groupBytes(row[:1], len(kinds))
		}
		moved := func(tp relation.Tuple) bool { return tp.Hash([]int{0})%buckets%5 == 0 }
		scripts := []string{"serial", "evict-replay", "dump-reload", "dump-evict-replay"}
		if perPart > 25 {
			scripts = []string{"serial", "dump-evict-replay"} // both paths in one run
		}
		for _, script := range scripts {
			t.Run(fmt.Sprintf("%d/%s", perPart, script), func(t *testing.T) {
				base := &HashAggregate{GroupOrds: []int{0}, Kinds: kinds, ArgOrds: args}
				ctx := testCtx()
				if strings.Contains(script, "dump") {
					ctx = budgetedCtx(max(512, stateBytes/4), storage.NewMemory())
				}
				var r1 func()
				if strings.Contains(script, "evict-replay") {
					var evict []int32
					for b := int32(0); b < buckets; b += 5 {
						evict = append(evict, b)
					}
					r1 = func() {
						base.EvictBuckets(evict)
						var replay []relation.Tuple
						for _, tp := range input[:len(input)/2] {
							if moved(tp) {
								replay = append(replay, tp)
							}
						}
						base.InsertState(replay)
					}
				}
				_, p0, _ := spillCounters()
				got := runAggHooked(t, ctx, base, input, len(input)/2, r1)
				_, p1, _ := spillCounters()
				if len(got) != len(want) {
					t.Fatalf("got %d groups, want %d", len(got), len(want))
				}
				for i := range want {
					if string(relation.EncodeTuple(got[i])) != string(relation.EncodeTuple(want[i])) {
						t.Fatalf("group %d = %s, want %s", i, got[i].Format(), want[i].Format())
					}
				}
				if ctx.Mem != nil {
					if p1 == p0 {
						t.Fatal("the aggregate never dumped")
					}
					assertClean(t, ctx)
				}
			})
		}
	}
}

// TestHashAggregateMinMaxNullGroups pins MIN and MAX, which run in the
// group's output slot, over a group whose arguments are all NULL and over
// groups that mix NULLs with ints or strings — in memory and through dumps
// whose records carry NULL-only partials.
func TestHashAggregateMinMaxNullGroups(t *testing.T) {
	var input []relation.Tuple
	add := func(k string, v relation.Value) { input = append(input, relation.Tuple{relation.String(k), v}) }
	// Three batches of NULL arguments first: every dump of them is a
	// NULL-only partial of each group.
	for i := 0; i < 300; i++ {
		add("M", relation.Null)
		add("N", relation.Null)
		add("S", relation.Null)
	}
	add("M", relation.Int(5))
	add("M", relation.Int(-3))
	add("M", relation.Int(9))
	add("S", relation.String("pear"))
	add("S", relation.String("apple"))
	add("S", relation.String("zoo"))
	add("M", relation.Null)
	kinds := []logical.AggKind{logical.AggCount, logical.AggCount, logical.AggMin, logical.AggMax}
	args := []int{-1, 1, 1, 1}
	want := []string{"(M, 304, 3, -3, 9)", "(N, 300, 0, NULL, NULL)", "(S, 303, 3, apple, zoo)"}
	for _, limit := range []int64{0, 1} {
		t.Run(fmt.Sprintf("budget%d", limit), func(t *testing.T) {
			ctx := testCtx()
			if limit > 0 {
				ctx = budgetedCtx(limit, storage.NewMemory()) // dumps after every batch
			}
			base := &HashAggregate{GroupOrds: []int{0}, Kinds: kinds, ArgOrds: args}
			_, p0, _ := spillCounters()
			got := runAggHooked(t, ctx, base, input, 0, nil)
			_, p1, _ := spillCounters()
			if len(got) != len(want) {
				t.Fatalf("got %d groups, want %d", len(got), len(want))
			}
			for i, row := range got {
				if row.Format() != want[i] {
					t.Errorf("group %d = %s, want %s", i, row.Format(), want[i])
				}
			}
			if limit > 0 {
				if p1-p0 < 3 {
					t.Fatalf("%d dumps under a 1-byte budget, want one per batch", p1-p0)
				}
				assertClean(t, ctx)
			}
		})
	}
}

// BenchmarkHashAggregate is the operator's inner loop at the analytic
// workload's cardinality: 47 000 join rows into ~23 000 string-keyed groups,
// COUNT(*).
func BenchmarkHashAggregate(b *testing.B) {
	input := make([]relation.Tuple, 47000)
	for i := range input {
		input[i] = relation.Tuple{relation.String(fmt.Sprintf("YAL%05dC", i*7919%23000)), relation.Int(int64(i))}
	}
	ctx := testCtx()
	ctx.Costs = Costs{} // measure the data structure, not the cost model
	b.Run("w1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := drain(b, newAgg(input, []int{0}, []logical.AggKind{logical.AggCount}, []int{-1}), ctx, 0)
			if len(out) != 23000 {
				b.Fatalf("groups = %d, want 23000", len(out))
			}
		}
	})
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

// TestHashAggregateReplayRacesDriver delivers replays from a second
// goroutine, through Consumer.Deliver, while the fragment's driver absorbs —
// in memory and dumping under a budget. Every tuple is either absorbed once
// or counted as dropped (a replay that finds the output frozen, or arrives
// after the driver closed the aggregate).
func TestHashAggregateReplayRacesDriver(t *testing.T) {
	input, replay := aggInput(3000, 40), aggInput(400, 40)
	for _, limit := range []int64{0, 512} {
		t.Run(fmt.Sprintf("budget%d", limit), func(t *testing.T) {
			ctx := testCtx()
			if limit > 0 {
				ctx = budgetedCtx(limit, storage.NewMemory())
			}
			dropped := obs.Default().Counter(obs.MAggReplayDropped)
			d0 := dropped.Value()
			sink := &rowsSink{}
			rig := newStateRig(t, ctx, countSpec(), sink, "A", "A")
			for i := 0; i < len(input); i += 100 {
				rig.data("A", false, input[i:i+100]...)
			}
			rig.eos("A")
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < len(replay); i += 10 {
					rig.replay("A", replay[i:i+10])
				}
			}()
			if err := rig.rt.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			<-done
			var total int64
			for _, row := range sink.rows {
				total += row[1].AsInt()
			}
			if got, want := total+dropped.Value()-d0, int64(len(input)+len(replay)); got != want {
				t.Fatalf("%d tuples counted and %d dropped, want %d in all", total, dropped.Value()-d0, want)
			}
			if limit > 0 {
				assertClean(t, ctx)
			}
		})
	}
}

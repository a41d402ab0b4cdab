package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"sort"
	"testing"

	"repro/internal/logical"
	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/testenv"
)

// budgetedCtx is testCtx plus a memory budget and the spill backend.
func budgetedCtx(limit int64, spill storage.Backend) *ExecContext {
	ctx := testCtx()
	ctx.Mem = storage.NewBudget(limit)
	ctx.Spill = spill
	return ctx
}

// forEachSpillBackend runs f as one subtest per spill backend: the
// in-memory one and a posix one under a fresh temporary directory.
func forEachSpillBackend(t *testing.T, f func(t *testing.T, spill storage.Backend)) {
	t.Helper()
	t.Run("memory", func(t *testing.T) { f(t, storage.NewMemory()) })
	t.Run("posix", func(t *testing.T) {
		spill, err := storage.NewPosix(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer spill.Close()
		f(t, spill)
	})
}

// encodings canonicalises a result set for multiset comparison: spilled joins
// emit deferred matches after streaming ones, so output ORDER may differ from
// the in-memory join while the multiset must not.
func encodings(ts []relation.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = string(relation.EncodeTuple(t))
	}
	sort.Strings(out)
	return out
}

func sameMultiset(t *testing.T, got, want []relation.Tuple) {
	t.Helper()
	ge, we := encodings(got), encodings(want)
	if len(ge) != len(we) {
		t.Fatalf("result size %d, want %d", len(ge), len(we))
	}
	for i := range ge {
		if ge[i] != we[i] {
			t.Fatalf("result multiset diverged at %d:\n%x\n%x", i, ge[i], we[i])
		}
	}
}

// assertClean verifies the budget and backend leak nothing after Close.
func assertClean(t *testing.T, ctx *ExecContext) {
	t.Helper()
	if n := ctx.Mem.Inflight(); n != 0 {
		t.Fatalf("budget leaks %d inflight bytes after Close", n)
	}
	runs, err := ctx.Spill.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 0 {
		t.Fatalf("backend leaks runs after Close: %v", runs)
	}
}

func spillCounters() (bytes, parts, restarts int64) {
	o := obs.Default()
	return o.Counter(obs.MSpillBytes).Value(),
		o.Counter(obs.MSpillPartitions).Value(),
		o.Counter(obs.MSpillRestarts).Value()
}

func TestHashJoinSpillParity(t *testing.T) {
	build := buildTuples(200)
	probe := probeTuples(600, 200)
	want := drain(t, newJoin(build, probe), testCtx(), 0)

	forEachSpillBackend(t, func(t *testing.T, spill storage.Backend) {
		b0, p0, _ := spillCounters()
		ctx := budgetedCtx(2048, spill) // far below the ~200-entry build side
		got := drain(t, newJoin(build, probe), ctx, 0)
		b1, p1, _ := spillCounters()

		sameMultiset(t, got, want)
		if p1 == p0 || b1 == b0 {
			t.Fatal("budget was never breached: test exercised nothing")
		}
		assertClean(t, ctx)
	})
}

func TestHashJoinSpillRecursiveRepartition(t *testing.T) {
	build := buildTuples(120)
	probe := probeTuples(360, 120)
	want := drain(t, newJoin(build, probe), testCtx(), 0)

	forEachSpillBackend(t, func(t *testing.T, spill storage.Backend) {
		_, _, r0 := spillCounters()
		// A 1-byte budget breaches on every reserve: the drain's reloads
		// breach too and re-partition recursively down to maxSpillDepth.
		ctx := budgetedCtx(1, spill)
		got := drain(t, newJoin(build, probe), ctx, 0)
		_, _, r1 := spillCounters()

		sameMultiset(t, got, want)
		if r1 == r0 {
			t.Fatal("no recursive re-partition happened under a 1-byte budget")
		}
		assertClean(t, ctx)
	})
}

func TestHashJoinSpillDuplicateKeys(t *testing.T) {
	// Duplicate build keys cannot be split by their own hash: the depth cap
	// must end the recursion and process the pair in memory.
	var build []relation.Tuple
	for i := 0; i < 5; i++ {
		build = append(build, buildTuples(8)...)
	}
	probe := probeTuples(40, 8)
	want := drain(t, newJoin(build, probe), testCtx(), 0)

	forEachSpillBackend(t, func(t *testing.T, spill storage.Backend) {
		ctx := budgetedCtx(1, spill)
		got := drain(t, newJoin(build, probe), ctx, 0)
		sameMultiset(t, got, want)
		if len(got) != 5*40 {
			t.Fatalf("join produced %d tuples, want %d", len(got), 5*40)
		}
		assertClean(t, ctx)
	})
}

func TestHashAggregateSpillParity(t *testing.T) {
	input := aggInput(500, 30)
	groupOrds := []int{0}
	kinds := []logical.AggKind{logical.AggCount, logical.AggSum, logical.AggMin, logical.AggMax}
	args := []int{-1, 1, 1, 1}
	want := drain(t, newAgg(input, groupOrds, kinds, args), testCtx(), 0)

	forEachSpillBackend(t, func(t *testing.T, spill storage.Backend) {
		_, p0, _ := spillCounters()
		ctx := budgetedCtx(512, spill) // a handful of groups per dump
		got := drain(t, newAgg(input, groupOrds, kinds, args), ctx, 0)
		_, p1, _ := spillCounters()

		// Aggregate output is sorted by group key, so parity is positional.
		if len(got) != len(want) {
			t.Fatalf("got %d groups, want %d", len(got), len(want))
		}
		for i := range want {
			if string(relation.EncodeTuple(got[i])) != string(relation.EncodeTuple(want[i])) {
				t.Fatalf("group %d diverged: %v vs %v", i, got[i].Format(), want[i].Format())
			}
		}
		if p1 == p0 {
			t.Fatal("aggregate never dumped under a 512-byte budget")
		}
		assertClean(t, ctx)
	})
}

// TestSpillArenaPoisoned reruns the join and aggregate spill tests with
// every transient run reader's scratch arena poisoned at each reset: the
// Values it takes back are overwritten with a poison string instead of
// cleared. A reader that kept a record past the next refill without copying
// it — a drain table built from a scratch reload, a probe match, a
// re-partition split or an aggregate merge — would read the poison and
// diverge from the unbudgeted result.
func TestSpillArenaPoisoned(t *testing.T) {
	poison := relation.String("poisoned scratch value")
	arenaPoison.Store(&poison)
	defer arenaPoison.Store(nil)
	for _, tc := range []struct {
		name string
		test func(*testing.T)
	}{
		{"HashJoinSpillParity", TestHashJoinSpillParity},
		{"HashJoinSpillRecursiveRepartition", TestHashJoinSpillRecursiveRepartition},
		{"HashJoinSpillDuplicateKeys", TestHashJoinSpillDuplicateKeys},
		{"HashJoinSpillEvictReplay", TestHashJoinSpillEvictReplay},
		{"HashAggregateSpillParity", TestHashAggregateSpillParity},
	} {
		t.Run(tc.name, tc.test)
	}
}

// BenchmarkHashJoinSpill is the join's grace-hash spill path at the
// analytic workload's cardinality: 30 000 build rows and 47 000 probe rows
// under a 512 KiB budget on the memory backend, so partitions spill, probe
// tuples defer to runs, and the drain reloads, re-partitions and matches
// them. It reports the re-partitions per join beside time and allocations.
func BenchmarkHashJoinSpill(b *testing.B) {
	build := buildTuples(30000)
	probe := probeTuples(47000, 30000)
	_, _, r0 := spillCounters()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := budgetedCtx(512<<10, storage.NewMemory())
		ctx.Costs = Costs{} // measure the spill path, not the cost model
		if out := drain(b, newJoin(build, probe), ctx, 0); len(out) != len(probe) {
			b.Fatalf("join produced %d tuples, want %d", len(out), len(probe))
		}
	}
	_, _, r1 := spillCounters()
	b.ReportMetric(float64(r1-r0)/float64(b.N), "restarts/op")
}

// BenchmarkHashAggregateSpill is the aggregate's spill path at the analytic
// workload's cardinality: 47 000 rows into 23 000 string-keyed groups,
// COUNT(*) and SUM, under a 512 KiB budget on the memory backend, so the
// table dumps to its run and the freeze reloads and re-merges it.
func BenchmarkHashAggregateSpill(b *testing.B) {
	input := make([]relation.Tuple, 47000)
	for i := range input {
		input[i] = relation.Tuple{relation.String(fmt.Sprintf("YAL%05dC", i*7919%23000)), relation.Int(int64(i))}
	}
	kinds := []logical.AggKind{logical.AggCount, logical.AggSum}
	_, p0, _ := spillCounters()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := budgetedCtx(512<<10, storage.NewMemory())
		ctx.Costs = Costs{} // measure the spill path, not the cost model
		if out := drain(b, newAgg(input, []int{0}, kinds, []int{-1, 1}), ctx, 0); len(out) != 23000 {
			b.Fatalf("groups = %d, want 23000", len(out))
		}
	}
	_, p1, _ := spillCounters()
	b.ReportMetric(float64(p1-p0)/float64(b.N), "dumps/op")
}

// maxRepartitionAllocsPerSubRun bounds what one grace-hash restart on the
// memory backend allocates per sub-run it writes: the run itself, its one
// frame copy and frame list, and a share of the restart's fixed cost (the
// sub-run names, the two readers, the writer and sub-pair lists, the
// spill event): about 3.75. The headroom covers an encode-buffer pool
// emptied by a collection; a name formatted per sub-run, or closures and
// a writer allocated beside each run, push it over.
const maxRepartitionAllocsPerSubRun = 5

// TestRepartitionAllocsPerSubRun counts the allocations of one
// repartition of a small (build run, probe run) pair.
func TestRepartitionAllocsPerSubRun(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	spill := storage.NewMemory()
	ctx := budgetedCtx(1<<30, spill)
	var s joinState
	s.init(ctx, 0)
	d := &joinSpillDrain{s: &s, j: &HashJoin{BuildKeys: []int{0}, ProbeKeys: []int{0}}}
	write := func(name string, meta func(i int) relation.Tuple, ts []relation.Tuple) {
		w, err := spill.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, tp := range ts {
			if err := w.Append(append(meta(i), tp...)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	build, probe := buildTuples(200), probeTuples(400, 200)
	restart := func(i int) uint64 {
		pr := spillPair{build: fmt.Sprintf("q%d-p0-build", i), probe: fmt.Sprintf("q%d-p0-probe", i)}
		write(pr.build, func(i int) relation.Tuple { return relation.Tuple{relation.Int(0), relation.Int(int64(i))} }, build)
		write(pr.probe, func(i int) relation.Tuple { return relation.Tuple{relation.Int(int64(i))} }, probe)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := d.repartition(pr)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.pairs) != spillFan {
			t.Fatalf("restart queued %d sub-pairs, want %d", len(d.pairs), spillFan)
		}
		for _, sub := range d.pairs {
			_ = spill.Remove(sub.build)
			_ = spill.Remove(sub.probe)
		}
		d.pairs = nil
		return after.Mallocs - before.Mallocs
	}
	restart(0) // fills the encode-buffer pool the sub-run writers draw from
	per := float64(restart(1)) / (2 * spillFan)
	t.Logf("%.2f allocations per sub-run", per)
	if per > maxRepartitionAllocsPerSubRun {
		t.Fatalf("one repartition allocates %.2f per sub-run, ceiling %d", per, maxRepartitionAllocsPerSubRun)
	}
	if runs, _ := spill.List(); len(runs) != 0 {
		t.Fatalf("runs left behind: %v", runs)
	}
}

func TestSortSpillParity(t *testing.T) {
	// Duplicate keys with distinct payloads: the external merge must
	// reproduce sort.SliceStable byte for byte, not just a valid ordering.
	input := probeTuples(400, 25)
	sorter := func() *Sort {
		return &Sort{Child: NewSliceSource(input, 0), Ords: []int{0}, Desc: []bool{false}}
	}
	want := drain(t, sorter(), testCtx(), 0)

	forEachSpillBackend(t, func(t *testing.T, spill storage.Backend) {
		_, p0, _ := spillCounters()
		ctx := budgetedCtx(1024, spill) // forces several flushed runs plus a tail
		got := drain(t, sorter(), ctx, 0)
		_, p1, _ := spillCounters()

		if len(got) != len(want) {
			t.Fatalf("sorted %d tuples, want %d", len(got), len(want))
		}
		for i := range want {
			if string(relation.EncodeTuple(got[i])) != string(relation.EncodeTuple(want[i])) {
				t.Fatalf("external sort order diverged at %d: %v vs %v",
					i, got[i].Format(), want[i].Format())
			}
		}
		if p1 == p0 {
			t.Fatal("sort never flushed a run under a 1KiB budget")
		}
		assertClean(t, ctx)
	})
}

func TestSortShedsOwnShareOnly(t *testing.T) {
	// Another operator holds the budget over its limit for the whole sort
	// (a frozen aggregate upstream does): the sort must still buffer a real
	// share of the budget per run, not flush one run per input tuple.
	const limit = 16 << 10
	input := probeTuples(2000, 25)
	var inputBytes int64
	for _, tp := range input {
		inputBytes += sortTupleBytes(tp)
	}
	sorter := func() *Sort {
		return &Sort{Child: NewSliceSource(input, 0), Ords: []int{0}, Desc: []bool{false}}
	}
	want := drain(t, sorter(), testCtx(), 0)

	ctx := budgetedCtx(limit, storage.NewMemory())
	ctx.Mem.Reserve(2 * limit)
	_, p0, _ := spillCounters()
	got := drain(t, sorter(), ctx, 0)
	_, p1, _ := spillCounters()
	ctx.Mem.Release(2 * limit)

	runs := p1 - p0
	if maxRuns := inputBytes/(limit/sortShedShare) + 1; runs == 0 || runs > maxRuns {
		t.Fatalf("sort flushed %d runs for %d tuples (%d bytes) under a %d-byte budget, want 1..%d",
			runs, len(input), inputBytes, limit, maxRuns)
	}
	if len(got) != len(want) {
		t.Fatalf("sorted %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if string(relation.EncodeTuple(got[i])) != string(relation.EncodeTuple(want[i])) {
			t.Fatalf("external sort order diverged at %d", i)
		}
	}
	assertClean(t, ctx)
}

func TestHashJoinSpillEvictReplay(t *testing.T) {
	// R1 under active spill: evict buckets while partitions are spilled,
	// replay the evicted build tuples from the "recovery log", and verify
	// every probe tuple still matches exactly once.
	build := buildTuples(40)
	forEachSpillBackend(t, func(t *testing.T, spill storage.Backend) {
		ctx := budgetedCtx(64, spill) // everything spills almost immediately
		j := newJoin(build, probeTuples(40, 40))
		if err := j.Open(ctx); err != nil {
			t.Fatal(err)
		}
		_, p0, _ := spillCounters()
		_ = p0 // counters are process-wide; spill activity asserted structurally below
		spilled := false
		for i := range j.st.parts {
			if j.st.parts[i].spilled {
				spilled = true
			}
		}
		if !spilled {
			t.Fatal("no partition spilled under a 64-byte budget")
		}
		var evict []int32
		evictSet := make(map[int32]bool)
		for _, tp := range build[:10] {
			b, err := j.BucketOf(tp)
			if err != nil {
				t.Fatal(err)
			}
			if !evictSet[b] {
				evictSet[b] = true
				evict = append(evict, b)
			}
		}
		before := j.StateSize()
		j.EvictBuckets(evict)
		if j.StateSize() >= before {
			t.Fatal("eviction did not shrink state while spilled")
		}
		var replay []relation.Tuple
		for _, tp := range build {
			b, err := j.BucketOf(tp)
			if err != nil {
				t.Fatal(err)
			}
			if evictSet[b] {
				replay = append(replay, tp)
			}
		}
		j.InsertState(replay)
		out := pullAll(t, j, 0)
		if len(out) != 40 {
			t.Fatalf("join after evict+replay under spill produced %d tuples, want 40", len(out))
		}
		// Exactly-once per probe: every probe index 0..39 appears once.
		seen := make(map[int64]bool)
		for _, tp := range out {
			idx := tp[3].AsInt()
			if seen[idx] {
				t.Fatalf("probe %d matched twice", idx)
			}
			seen[idx] = true
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		assertClean(t, ctx)
	})
}

func TestHashJoinParallelSpillParity(t *testing.T) {
	// A join spills under a budget far below its build side and drains the
	// spilled pairs after its probe input: its output must equal the
	// unbudgeted join's multiset.
	build := buildTuples(200)
	probe := probeTuples(600, 200)
	want := drain(t, newJoin(build, probe), testCtx(), 0)

	forEachSpillBackend(t, func(t *testing.T, spill storage.Backend) {
		b0, p0, _ := spillCounters()
		ctx := budgetedCtx(2048, spill) // far below the ~200-entry build side
		got := drain(t, newJoin(build, probe), ctx, 0)
		b1, p1, _ := spillCounters()

		sameMultiset(t, got, want)
		if p1 == p0 || b1 == b0 {
			t.Fatal("join never spilled under a 2KiB budget")
		}
		assertClean(t, ctx)
	})
}

// hookSource feeds an operator its input and runs hook once, between two
// batches, when the first `at` tuples have been absorbed.
type hookSource struct {
	tuples []relation.Tuple
	pos    int
	at     int
	hook   func()
}

func (h *hookSource) Open(*ExecContext) error { return nil }
func (h *hookSource) Close() error            { return nil }
func (h *hookSource) NextBatch(dst *relation.Batch) (int, error) {
	dst.Rewind()
	if h.pos == h.at && h.hook != nil {
		h.hook()
		h.hook = nil
	}
	end := len(h.tuples)
	if h.pos < h.at {
		end = h.at
	}
	for h.pos < end && !dst.Full() {
		dst.Append(h.tuples[h.pos])
		h.pos++
	}
	return dst.Len(), nil
}

// aggDataset is one input of the parity matrix.
type aggDataset struct {
	name  string
	input []relation.Tuple
	kinds []logical.AggKind
	args  []int
}

func aggDatasets() []aggDataset {
	all := []logical.AggKind{logical.AggCount, logical.AggCount, logical.AggSum, logical.AggAvg, logical.AggMin, logical.AggMax}
	allArgs := []int{-1, 1, 1, 1, 1, 1}
	var nullArgs, mixedKeys, nullKey []relation.Tuple
	for i := 0; i < 600; i++ {
		// Every third argument is NULL, and group K07 sees only NULLs.
		v := relation.Int(int64(i))
		if i%3 == 0 || i%30 == 7 {
			v = relation.Null
		}
		nullArgs = append(nullArgs, relation.Tuple{relation.String(fmt.Sprintf("K%02d", i%30)), v})
		// Keys 0..14 arrive as Int and as Float: Value.Equal makes k and
		// float64(k) one group, and ten sorts after nine.
		k := relation.Int(int64(i % 15))
		if i%2 == 1 {
			k = relation.Float(float64(i % 15))
		}
		mixedKeys = append(mixedKeys, relation.Tuple{k, relation.Int(int64(i))})
		// One group in eleven has the NULL key.
		nk := relation.String(fmt.Sprintf("K%02d", i%11))
		if i%11 == 4 {
			nk = relation.Null
		}
		nullKey = append(nullKey, relation.Tuple{nk, relation.Int(int64(i))})
	}
	return []aggDataset{
		{"null-args", nullArgs, all, allArgs},
		{"int-float-keys", mixedKeys, all, allArgs},
		{"null-key", nullKey, all, allArgs},
	}
}

// The R1 interleavings of the parity matrix. Each runs between two batches,
// at one of aggR1Points.
const (
	aggNoReplay    = "no-replay"
	aggReplayAdopt = "replay-unheld-bucket" // the input never holds the replayed buckets: replays create their groups
	aggReplayFold  = "replay-held-bucket"   // the input holds half of the replayed buckets' tuples: replays meet their groups
	aggEvictReplay = "evict-mid-absorb"
)

// aggR1Points are where in the absorbed input the parity matrix runs R1:
// before the first batch (the table is empty, so an evict finds nothing),
// half-way, and after the last batch (the table holds every absorbed group
// and freezes right after the replay).
var aggR1Points = []struct {
	name string
	at   func(n int) int
}{
	{"r1-at-start", func(int) int { return 0 }},
	{"r1-at-half", func(n int) int { return n / 2 }},
	{"r1-at-end", func(n int) int { return n }},
}

func TestHashAggregateParallelSpillParity(t *testing.T) {
	// Every R1 interleaving, point, budget and input must emit exactly the
	// rows — in exactly the order — of the unbudgeted, undisturbed
	// aggregate: replays and absorbs land in the one table, and dumps go
	// through the one run.
	groupOrds := []int{0}
	for _, ds := range aggDatasets() {
		want := drain(t, newAgg(ds.input, groupOrds, ds.kinds, ds.args), testCtx(), 0)
		if ds.name == "int-float-keys" {
			// The emit order is ascending by value, not by rendered key.
			for i, row := range want {
				if row[0].AsFloat() != float64(i) {
					t.Fatalf("row %d has key %s, want %d", i, row[0].Format(), i)
				}
			}
		}
		bucketOf := func(tp relation.Tuple) int32 { return int32(tp.Hash(groupOrds) % 64) }
		moved := map[int32]bool{bucketOf(ds.input[0]): true, bucketOf(ds.input[1]): true, bucketOf(ds.input[2]): true}
		var movedBuckets []int32
		for b := range moved {
			movedBuckets = append(movedBuckets, b)
		}
		for _, point := range aggR1Points {
			for _, script := range []string{aggNoReplay, aggReplayAdopt, aggReplayFold, aggEvictReplay} {
				for _, limit := range []int64{0, 512} {
					name := fmt.Sprintf("%s/%s/%s/budget%d", ds.name, point.name, script, limit)
					t.Run(name, func(t *testing.T) {
						check := func(t *testing.T, ctx *ExecContext) {
							// Split the input: what the aggregate absorbs, and what
							// the script replays instead.
							var absorbed, replayed []relation.Tuple
							for i, tp := range ds.input {
								switch {
								case script == aggReplayAdopt && moved[bucketOf(tp)],
									script == aggReplayFold && moved[bucketOf(tp)] && i%2 == 1:
									replayed = append(replayed, tp)
								default:
									absorbed = append(absorbed, tp)
								}
							}
							at := point.at(len(absorbed))
							base := &HashAggregate{GroupOrds: groupOrds, Kinds: ds.kinds, ArgOrds: ds.args}
							r1 := func() {
								if script == aggEvictReplay {
									// The buckets move here from a sibling instance
									// and back: what was absorbed of them so far is
									// evicted and replayed from the log.
									base.EvictBuckets(movedBuckets)
									for _, tp := range absorbed[:at] {
										if moved[bucketOf(tp)] {
											replayed = append(replayed, tp)
										}
									}
								}
								base.InsertState(replayed)
							}
							_, p0, _ := spillCounters()
							overrelease := obs.Default().Counter(obs.MMemOverrelease)
							o0 := overrelease.Value()
							got := runAggHooked(t, ctx, base, absorbed, at, r1)
							_, p1, _ := spillCounters()
							if len(got) != len(want) {
								t.Fatalf("got %d groups, want %d", len(got), len(want))
							}
							for i := range want {
								if !got[i].Equal(want[i]) {
									t.Fatalf("group %d = %s, want %s", i, got[i].Format(), want[i].Format())
								}
							}
							if limit > 0 {
								if p1 == p0 {
									t.Fatal("aggregate never dumped under a 512-byte budget")
								}
								assertClean(t, ctx)
							}
							// A release of bytes the budget never held is clamped,
							// so it would hide a reservation that lands later.
							if d := overrelease.Value() - o0; d != 0 {
								t.Fatalf("%d releases exceeded the reserved bytes (mem_overrelease_total)", d)
							}
						}
						if limit == 0 {
							check(t, testCtx())
							return
						}
						forEachSpillBackend(t, func(t *testing.T, spill storage.Backend) {
							check(t, budgetedCtx(limit, spill)) // a handful of groups per dump
						})
					})
				}
			}
		}
	}
}

// TestHashAggregateReservesGroupsOnce pins the single reservation: under a
// budget that never breaches, a frozen aggregate holds exactly the bytes of
// its distinct groups, and nothing after Close.
func TestHashAggregateReservesGroupsOnce(t *testing.T) {
	input := aggInput(500, 30)
	kinds := []logical.AggKind{logical.AggCount, logical.AggSum}
	var want int64
	for _, row := range drain(t, newAgg(input, []int{0}, kinds, []int{-1, 1}), testCtx(), 0) {
		want += groupBytes(row[:1], len(kinds))
	}
	ctx := budgetedCtx(1<<20, storage.NewMemory())
	agg := newAgg(input, []int{0}, kinds, []int{-1, 1})
	if err := agg.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.NextBatch(relation.NewBatch(4)); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Mem.Inflight(); got != want {
		t.Errorf("%d bytes reserved after the first emitted batch, want %d (the distinct groups, once)", got, want)
	}
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}
	assertClean(t, ctx)
}

// corruptingBackend damages a payload byte of every spilled run whose name
// matches as the run is read back: the first value tag of block 0's first
// record becomes one no encoder writes.
type corruptingBackend struct {
	storage.Backend
	match *regexp.Regexp
}

// OpenBlocks wraps the matching runs' readers.
func (c corruptingBackend) OpenBlocks(name string) (storage.BlockReader, error) {
	br, err := c.Backend.OpenBlocks(name)
	if err != nil || !c.match.MatchString(name) {
		return br, err
	}
	return corruptBlocks{br}, nil
}

type corruptBlocks struct{ storage.BlockReader }

// ReadBlock damages a copy of block 0; the run itself stays intact.
func (c corruptBlocks) ReadBlock(i int, buf []byte) ([]byte, error) {
	block, err := c.BlockReader.ReadBlock(i, buf)
	if err != nil || i > 0 {
		return block, err
	}
	block = bytes.Clone(block)
	_, rest, _ := relation.TupleCount(block)
	_, sz := binary.Uvarint(rest) // the first record's value count
	block[len(block)-len(rest)+sz] = 0xff
	return block, nil
}

// TestSpillCorruptRunTypedErrors reads damaged spill runs back through the
// operators: the join's build reload and probe drain, the aggregate's
// reload and the sort's merge must each fail with a typed storage error,
// and Close must still leave no inflight bytes and no runs behind.
func TestSpillCorruptRunTypedErrors(t *testing.T) {
	cases := []struct {
		name, match string
		limit       int64
		op          func() Iterator
	}{
		// Partition runs are -pN-build/-probe, a repartition's sub-runs
		// -rN-sK-build/-probe. Every partition reload repartitions here, so
		// partition probe runs are read by the split; under 12000 bytes the
		// sub-pairs' reloads fit and the drain streams their probe runs.
		{"join-reload", "-build$", 2048, func() Iterator { return newJoin(buildTuples(200), probeTuples(600, 200)) }},
		{"join-split", `-p\d+-probe$`, 2048, func() Iterator { return newJoin(buildTuples(200), probeTuples(600, 200)) }},
		{"join-drain", `-s\d+-probe$`, 12000, func() Iterator { return newJoin(buildTuples(200), probeTuples(600, 200)) }},
		{"agg-reload", "-groups$", 512, func() Iterator {
			return newAgg(aggInput(500, 30), []int{0}, []logical.AggKind{logical.AggCount}, []int{-1})
		}},
		{"sort-merge", "/sort-", 1024, func() Iterator {
			return &Sort{Child: NewSliceSource(probeTuples(400, 25), 0), Ords: []int{0}, Desc: []bool{false}}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			forEachSpillBackend(t, func(t *testing.T, spill storage.Backend) {
				ctx := budgetedCtx(c.limit, corruptingBackend{spill, regexp.MustCompile(c.match)})
				it := c.op()
				err := it.Open(ctx)
				batch := relation.GetBatch()
				defer batch.Release()
				for err == nil {
					var n int
					if n, err = it.NextBatch(batch); n == 0 && err == nil {
						t.Fatal("a corrupt spill run was read to completion")
					}
				}
				var qe *qerr.Error
				if !errors.As(err, &qe) || qe.Kind != qerr.KindStorage {
					t.Fatalf("want qerr.KindStorage, got %T: %v", err, err)
				}
				_ = it.Close()
				assertClean(t, ctx)
			})
		})
	}
}

package engine

import (
	"fmt"
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
)

func buildTuples(n int) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := range out {
		out[i] = relation.Tuple{
			relation.String(fmt.Sprintf("K%03d", i)),
			relation.String(fmt.Sprintf("seq%d", i)),
		}
	}
	return out
}

func probeTuples(n, keyDomain int) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := range out {
		out[i] = relation.Tuple{
			relation.String(fmt.Sprintf("K%03d", i%keyDomain)),
			relation.Int(int64(i)),
		}
	}
	return out
}

func newJoin(build, probe []relation.Tuple) *HashJoin {
	return &HashJoin{
		Build:     NewSliceSource(build, 0),
		Probe:     NewSliceSource(probe, 0),
		BuildKeys: []int{0},
		ProbeKeys: []int{0},
	}
}

func TestHashJoinMatches(t *testing.T) {
	ctx := testCtx()
	j := newJoin(buildTuples(20), probeTuples(60, 20))
	out := drain(t, j, ctx, 0)
	if len(out) != 60 {
		t.Fatalf("join produced %d tuples, want 60 (every probe matches once)", len(out))
	}
	for _, tp := range out {
		if len(tp) != 4 {
			t.Fatal("concat width")
		}
		if !tp[0].Equal(tp[2]) {
			t.Fatalf("keys differ in output: %v", tp.Format())
		}
	}
}

func TestHashJoinNoMatches(t *testing.T) {
	ctx := testCtx()
	probe := []relation.Tuple{{relation.String("NOPE"), relation.Int(1)}}
	out := drain(t, newJoin(buildTuples(5), probe), ctx, 0)
	if len(out) != 0 {
		t.Fatalf("unexpected matches: %d", len(out))
	}
}

func TestHashJoinDuplicateBuildKeys(t *testing.T) {
	ctx := testCtx()
	build := append(buildTuples(3), buildTuples(3)...) // each key twice
	out := drain(t, newJoin(build, probeTuples(3, 3)), ctx, 0)
	if len(out) != 6 {
		t.Fatalf("join produced %d tuples, want 6", len(out))
	}
}

func TestHashJoinStateSize(t *testing.T) {
	ctx := testCtx()
	j := newJoin(buildTuples(30), nil)
	if err := j.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if j.StateSize() != 30 {
		t.Fatalf("state size = %d", j.StateSize())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j.StateSize() != 0 {
		t.Fatal("Close must drop state")
	}
}

func TestHashJoinEvictAndReplay(t *testing.T) {
	ctx := testCtx()
	build := buildTuples(40)
	j := newJoin(build, probeTuples(40, 40))
	if err := j.Open(ctx); err != nil {
		t.Fatal(err)
	}
	// Evict the buckets of the first 10 build tuples.
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
	j.EvictBuckets(evict)
	if j.StateSize() >= 40 {
		t.Fatal("eviction did not shrink state")
	}
	// Replay exactly the tuples whose buckets were evicted (as the
	// recovery log would) and verify the join output is complete again.
	var replay []relation.Tuple
	for _, tp := range build {
		b, _ := j.BucketOf(tp)
		if evictSet[b] {
			replay = append(replay, tp)
		}
	}
	j.InsertState(replay)
	if j.StateSize() != 40 {
		t.Fatalf("state after replay = %d, want 40", j.StateSize())
	}
	out := pullAll(t, j, 0)
	if len(out) != 40 {
		t.Fatalf("join after evict+replay produced %d, want 40", len(out))
	}
}

func TestHashJoinBucketAlignmentWithPolicy(t *testing.T) {
	// The join's bucket for a build tuple must equal the bucket the hash
	// distribution policy routes it by, or eviction and replay would
	// target different state than the producer moves.
	ctx := testCtx()
	j := newJoin(buildTuples(1), nil)
	if err := j.Open(ctx); err != nil {
		t.Fatal(err)
	}
	pol, err := NewHashPolicy([]int{0}, ctx.Buckets, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range buildTuples(100) {
		jb, _ := j.BucketOf(tp)
		_, pb := pol.Route(tp)
		if jb != pb {
			t.Fatalf("bucket mismatch: join %d vs policy %d for %v", jb, pb, tp.Format())
		}
	}
}

func TestHashJoinHashCollisionSafety(t *testing.T) {
	// Two different keys that share a bucket must not match; we force the
	// issue with a single bucket.
	ctx := testCtx()
	ctx.Buckets = 1
	build := []relation.Tuple{{relation.String("A"), relation.String("x")}}
	probe := []relation.Tuple{{relation.String("B"), relation.Int(1)}}
	out := drain(t, newJoin(build, probe), ctx, 0)
	if len(out) != 0 {
		t.Fatal("cross-key match leaked through shared bucket")
	}
}

func BenchmarkHashJoinProbe(b *testing.B) {
	ctx := testCtx()
	ctx.Costs = Costs{} // measure the data structure, not the cost model
	build := buildTuples(1000)
	j := newJoin(build, nil)
	if err := j.Open(ctx); err != nil {
		b.Fatal(err)
	}
	probe := probeTuples(1000, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Probe = NewSliceSource(probe, 0)
		_ = j.Probe.Open(ctx)
		pullAll(b, j, 0)
	}
}

// TestHashJoinOutParity holds a join with a fused projection (Out) to the
// plan it replaces, a Project over the unfused join: the same rows as a
// multiset and the same modelled milliseconds, on the probe path and through
// the spill drain under a 64KiB budget.
func TestHashJoinOutParity(t *testing.T) {
	out := []int{3, 0} // one probe column, then the build key
	for _, tc := range []struct {
		name   string
		budget int64
	}{
		{"w1", 0},
		{"w1-budget64k", 64 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := buildTuples(2000)
			probe := probeTuples(6000, 2000)
			run := func(fused bool) ([]relation.Tuple, float64) {
				ctx := testCtx()
				if tc.budget > 0 {
					ctx = budgetedCtx(tc.budget, storage.NewMemory())
				}
				join := newJoin(build, probe)
				var it Iterator = join
				if fused {
					join.Out = out
				} else {
					it = &Project{Child: join, Ords: out}
				}
				rows := drain(t, it, ctx, 0)
				if tc.budget > 0 {
					assertClean(t, ctx)
				}
				return rows, ctx.Meter.ChargedMs()
			}
			_, p0, _ := spillCounters()
			want, wantMs := run(false)
			got, gotMs := run(true)
			if _, p1, _ := spillCounters(); tc.budget > 0 && p1 == p0 {
				t.Fatal("budget was never breached: the spill drain went untested")
			}
			if len(got) != len(probe) {
				t.Fatalf("fused join emitted %d rows, want %d", len(got), len(probe))
			}
			if len(got[0]) != len(out) {
				t.Fatalf("fused join emitted rows of width %d, want %d", len(got[0]), len(out))
			}
			sameMultiset(t, got, want)
			if gotMs != wantMs {
				t.Errorf("fused join charged %v ms, Project over the join %v ms", gotMs, wantMs)
			}
		})
	}
}

// TestHashJoinR1RacesDriver evicts and replays buckets from a second
// goroutine, through the instance's CtrlEvict handler and Consumer.Deliver,
// while the driver probes — in memory and with partitions spilled. Evicting
// a bucket and replaying its build tuples leaves the table as it was, so
// every probe tuple matches at most once and, once a last pull has applied
// what the injector left queued, the table holds the whole build side.
func TestHashJoinR1RacesDriver(t *testing.T) {
	build := buildTuples(200)
	for _, limit := range []int64{0, 2048} {
		t.Run(fmt.Sprintf("budget%d", limit), func(t *testing.T) {
			ctx := testCtx()
			if limit > 0 {
				ctx = budgetedCtx(limit, storage.NewMemory())
			}
			rig := newStateRig(t, ctx, joinSpec(), &rowsSink{}, "B", "B", "P")
			rig.data("B", false, build...)
			rig.eos("B")
			probe := probeTuples(4000, 200)
			for i := 0; i < len(probe); i += 100 {
				rig.data("P", false, probe[i:i+100]...)
			}
			rig.eos("P")
			j := rig.rt.root.(*HashJoin)
			if err := j.Open(ctx); err != nil {
				t.Fatal(err)
			}
			// A bounded number of rounds: the driver applies every queued
			// operation before its next tuple, so an injector that never
			// stopped would starve it.
			byBucket := bucketsOf(build, ctx.Buckets)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for range 5 {
					for b, ts := range byBucket {
						rig.evict(b)
						rig.replay("B", ts)
					}
				}
			}()
			out := pullAll(t, j, 0)
			<-done
			if rest := pullAll(t, j, 0); len(rest) != 0 {
				t.Fatalf("%d rows after end of stream", len(rest))
			}
			seen := map[int64]bool{}
			for _, tp := range out {
				if idx := tp[3].AsInt(); seen[idx] {
					t.Fatalf("probe %d matched twice", idx)
				} else {
					seen[idx] = true
				}
			}
			if n := j.StateSize(); n != len(build) {
				t.Fatalf("StateSize = %d after evict/replay rounds, want %d", n, len(build))
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if err := rig.rt.Err(); err != nil {
				t.Fatal(err)
			}
			if limit > 0 {
				assertClean(t, ctx)
			}
		})
	}
}

package relation

import (
	"fmt"
	"testing"
)

func TestBatchAppendLenCap(t *testing.T) {
	b := NewBatch(4)
	if b.Len() != 0 || b.Cap() != 4 || b.Full() {
		t.Fatalf("fresh batch: len=%d cap=%d full=%v", b.Len(), b.Cap(), b.Full())
	}
	for i := 0; i < 4; i++ {
		b.Append(Tuple{Int(int64(i))})
	}
	if !b.Full() || b.Len() != 4 {
		t.Fatalf("after 4 appends: len=%d full=%v", b.Len(), b.Full())
	}
	// Appending past capacity grows rather than dropping.
	b.Append(Tuple{Int(99)})
	if b.Len() != 5 {
		t.Fatalf("overflow append lost a tuple: len=%d", b.Len())
	}
}

func TestBatchLimit(t *testing.T) {
	b := NewBatch(8)
	b.SetLimit(3)
	if b.Cap() != 3 {
		t.Fatalf("limited cap = %d, want 3", b.Cap())
	}
	b.Append(Tuple{Int(1)})
	b.Append(Tuple{Int(2)})
	b.Append(Tuple{Int(3)})
	if !b.Full() {
		t.Fatal("batch at limit must report full")
	}
	b.SetLimit(0)
	if b.Cap() != 8 || b.Full() {
		t.Fatalf("unclamped cap = %d full=%v", b.Cap(), b.Full())
	}
	// A limit at or above the container capacity is a no-op.
	b.SetLimit(100)
	if b.Cap() != 8 {
		t.Fatalf("oversized limit changed cap to %d", b.Cap())
	}
}

func TestBatchResetDropsReferences(t *testing.T) {
	b := NewBatch(4)
	b.Append(Tuple{String("x")})
	backing := b.Tuples[:1]
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset left tuples")
	}
	if backing[0] != nil {
		t.Fatal("Reset must nil out tuple references so the pool does not pin them")
	}
}

func TestBatchPoolRecycles(t *testing.T) {
	b := GetBatch()
	if b.Len() != 0 || b.Cap() != DefaultBatchSize {
		t.Fatalf("pooled batch: len=%d cap=%d", b.Len(), b.Cap())
	}
	b.SetLimit(5)
	b.Append(Tuple{Int(1)})
	b.Release()
	// Whatever container comes back must be empty and unclamped.
	c := GetBatch()
	defer c.Release()
	if c.Len() != 0 || c.Cap() != DefaultBatchSize {
		t.Fatalf("recycled batch dirty: len=%d cap=%d", c.Len(), c.Cap())
	}
}

func TestArenaTuplesAreIndependent(t *testing.T) {
	var a Arena
	t1 := a.Alloc(2)
	t1[0], t1[1] = Int(1), Int(2)
	t2 := a.Alloc(2)
	t2[0], t2[1] = Int(3), Int(4)
	if t1[0].AsInt() != 1 || t1[1].AsInt() != 2 {
		t.Fatal("second Alloc clobbered the first tuple")
	}
	// Full-slice expressions must prevent append on one tuple from bleeding
	// into the next one's storage.
	grown := append(t1, Int(99))
	if t2[0].AsInt() != 3 {
		t.Fatalf("append to a carved tuple overwrote its neighbour: %v", grown)
	}
}

func TestArenaAllocSizes(t *testing.T) {
	var a Arena
	if got := a.Alloc(0); len(got) != 0 {
		t.Fatalf("Alloc(0) = %d values", len(got))
	}
	big := a.Alloc(arenaChunk * 2)
	if len(big) != arenaChunk*2 {
		t.Fatalf("oversized Alloc = %d values", len(big))
	}
	for _, v := range big {
		if !v.IsNull() {
			t.Fatal("Alloc returned non-zero values")
		}
	}
}

// TestArenaResetReusesChunk: a Reset arena carves its kept chunk again,
// overwrites what it took back with the fill, doubles the chunk after a
// round that outgrew it, and allocates nothing once rounds fit.
func TestArenaResetReusesChunk(t *testing.T) {
	var a Arena
	a.Reset(Null)
	first := a.Alloc(3)
	first[0] = String("kept")
	a.Alloc(arenaChunk) // outgrows the kept chunk: carved from a fresh one
	poison := String("poison")
	a.Reset(poison)
	if !first[0].Equal(poison) || !first[2].Equal(poison) {
		t.Fatalf("Reset left %v in a released slot", first.Format())
	}
	again := a.Alloc(3)
	again[0] = String("kept")
	a.Alloc(arenaChunk) // fits the doubled chunk
	a.Reset(Null)
	if !again[0].IsNull() {
		t.Fatal("Reset(Null) did not clear a released slot")
	}
	if reused := a.Alloc(3); &reused[0] != &again[0] {
		t.Fatal("a Reset arena did not carve its kept chunk again")
	}
	if n := testing.AllocsPerRun(10, func() {
		a.Alloc(3)
		a.Alloc(arenaChunk)
		a.Reset(Null)
	}); n != 0 {
		t.Fatalf("a warm transient arena allocates %.0f times per round", n)
	}
}

// TestHashBucketDistribution pins the satellite requirement on the
// multiply-mix hash: hashing 10k distinct keys must land every bucket within
// 5% of the uniform share. At 4 buckets the expected load is 2500, so the 5%
// bound sits at 2.9 standard deviations of an ideal random hash — a biased
// combiner fails it, a uniform one passes with margin. (At 16+ buckets the
// per-bucket binomial noise of even a perfect hash exceeds 5%, so a tight
// bound there would only measure luck.) The old per-byte FNV fold was
// uniform too; this proves the cheaper mix64 combiner did not regress skew.
func TestHashBucketDistribution(t *testing.T) {
	const (
		keys    = 10000
		buckets = 4
	)
	for name, mk := range map[string]func(i int) Tuple{
		"int":    func(i int) Tuple { return Tuple{Int(int64(i))} },
		"string": func(i int) Tuple { return Tuple{String(fmt.Sprintf("ORF%06d", i))} },
	} {
		counts := make([]int, buckets)
		for i := 0; i < keys; i++ {
			counts[mk(i).Hash([]int{0})%buckets]++
		}
		want := float64(keys) / buckets
		for b, c := range counts {
			skew := (float64(c) - want) / want
			if skew > 0.05 || skew < -0.05 {
				t.Errorf("%s keys: bucket %d holds %d of %d (%.1f%% off uniform, limit 5%%)",
					name, b, c, keys, skew*100)
			}
		}
	}
	// Coarse clustering check at the engine's default bucket count: with an
	// expected load of ~156 per bucket, any bucket drifting past ±30% would
	// signal structural bias rather than noise.
	counts := make([]int, 64)
	for i := 0; i < keys; i++ {
		counts[(Tuple{Int(int64(i))}).Hash([]int{0})%64]++
	}
	want := float64(keys) / 64
	for b, c := range counts {
		if f := float64(c); f < want*0.7 || f > want*1.3 {
			t.Errorf("64-bucket check: bucket %d holds %d, expected ~%.0f", b, c, want)
		}
	}
}

// TestHashCompositeKeys checks the mix64 combiner separates column
// permutations: multi-column keys must not collide just because they contain
// the same values in a different order.
func TestHashCompositeKeys(t *testing.T) {
	a := Tuple{Int(1), Int(2)}
	b := Tuple{Int(2), Int(1)}
	if a.Hash([]int{0, 1}) == b.Hash([]int{0, 1}) {
		t.Error("column order must affect composite hash")
	}
	if a.Hash([]int{0, 1}) != a.Hash([]int{0, 1}) {
		t.Error("hash must be deterministic")
	}
}

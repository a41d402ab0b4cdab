package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/physical"
	"repro/internal/relation"
)

func TestWeightedPolicyFollowsWeights(t *testing.T) {
	p, err := NewWeightedPolicy([]float64{0.75, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 2)
	for i := 0; i < 1000; i++ {
		c, b := p.Route(relation.Tuple{relation.Int(int64(i))})
		if b != -1 {
			t.Fatal("weighted routing must not assign buckets")
		}
		counts[c]++
	}
	if counts[0] != 750 || counts[1] != 250 {
		t.Fatalf("counts = %v, want [750 250]", counts)
	}
}

func TestWeightedPolicySmoothPrefix(t *testing.T) {
	// Any prefix must track the weights closely (no long runs to one
	// consumer), otherwise early tuples all land on one machine.
	p, _ := NewWeightedPolicy([]float64{0.5, 0.5})
	last := -1
	for i := 0; i < 100; i++ {
		c, _ := p.Route(nil)
		if c == last && i > 0 {
			t.Fatalf("consecutive tuples to consumer %d at position %d", c, i)
		}
		last = c
	}
}

func TestWeightedPolicySetWeights(t *testing.T) {
	p, _ := NewWeightedPolicy([]float64{0.5, 0.5})
	moved, err := p.SetWeights([]float64{0.9, 0.1})
	if err != nil || moved != nil {
		t.Fatalf("SetWeights: %v, %v", moved, err)
	}
	counts := make([]int, 2)
	for i := 0; i < 1000; i++ {
		c, _ := p.Route(nil)
		counts[c]++
	}
	if counts[0] != 900 || counts[1] != 100 {
		t.Fatalf("counts after rebalance = %v, want [900 100]", counts)
	}
	if _, err := p.SetWeights([]float64{0.5, 0.6}); err == nil {
		t.Fatal("non-normalised weights accepted")
	}
	if _, err := p.SetWeights([]float64{1}); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

func TestWeightedPolicyMisc(t *testing.T) {
	if _, err := NewWeightedPolicy([]float64{0.5, 0.4}); err == nil {
		t.Fatal("bad initial weights accepted")
	}
	if _, err := NewWeightedPolicy([]float64{-0.5, 1.5}); err == nil {
		t.Fatal("negative weight accepted")
	}
	p, _ := NewWeightedPolicy([]float64{1})
	if p.Kind() != physical.PolicyWeighted || p.OwnerMap() != nil {
		t.Error("metadata")
	}
	if err := p.SetOwnerMap([]int32{0}); err == nil {
		t.Error("SetOwnerMap must fail on weighted policy")
	}
	defer func() {
		if recover() == nil {
			t.Error("RouteBucket must panic on weighted policy")
		}
	}()
	p.RouteBucket(0)
}

func keyedTuple(i int) relation.Tuple {
	return relation.Tuple{relation.String(fmt.Sprintf("ORF%05d", i)), relation.Int(int64(i))}
}

func TestHashPolicyDeterministicAndAligned(t *testing.T) {
	p, err := NewHashPolicy([]int{0}, 64, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		tp := keyedTuple(i)
		c1, b1 := p.Route(tp)
		c2, b2 := p.Route(tp)
		if c1 != c2 || b1 != b2 {
			t.Fatal("routing must be deterministic")
		}
		// Same key, different payload: same bucket.
		tp2 := relation.Tuple{tp[0], relation.Int(999)}
		if _, b3 := p.Route(tp2); b3 != b1 {
			t.Fatal("bucket must depend only on key columns")
		}
		if p.RouteBucket(b1) != c1 {
			t.Fatal("RouteBucket disagrees with Route")
		}
	}
}

func TestHashPolicyInitialApportionment(t *testing.T) {
	p, _ := NewHashPolicy([]int{0}, 100, []float64{0.7, 0.3})
	counts := make([]int, 2)
	for _, o := range p.OwnerMap() {
		counts[o]++
	}
	if counts[0] != 70 || counts[1] != 30 {
		t.Fatalf("bucket counts = %v", counts)
	}
}

func TestHashPolicyMinimalMove(t *testing.T) {
	p, _ := NewHashPolicy([]int{0}, 100, []float64{0.5, 0.5})
	before := p.OwnerMap()
	moved, err := p.SetWeights([]float64{0.9, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	after := p.OwnerMap()
	// Exactly 40 buckets must change hands (50 -> 90/10).
	if len(moved) != 40 {
		t.Fatalf("moved %d buckets, want 40", len(moved))
	}
	changed := 0
	movedSet := make(map[int32]bool, len(moved))
	for _, b := range moved {
		movedSet[b] = true
	}
	for b := range after {
		if after[b] != before[b] {
			changed++
			if !movedSet[int32(b)] {
				t.Fatalf("bucket %d changed owner but was not reported moved", b)
			}
		}
	}
	if changed != len(moved) {
		t.Fatalf("reported %d moves, observed %d changes", len(moved), changed)
	}
	counts := make([]int, 2)
	for _, o := range after {
		counts[o]++
	}
	if counts[0] != 90 || counts[1] != 10 {
		t.Fatalf("counts after move = %v", counts)
	}
}

func TestHashPolicyMoveProperty(t *testing.T) {
	// Property: after SetWeights, bucket counts match the apportionment of
	// the new weights, every owner is in range, and unmoved buckets kept
	// their owner.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		w := randWeights(rng, n)
		p, err := NewHashPolicy([]int{0}, 128, w)
		if err != nil {
			return false
		}
		before := p.OwnerMap()
		w2 := randWeights(rng, n)
		moved, err := p.SetWeights(w2)
		if err != nil {
			return false
		}
		after := p.OwnerMap()
		movedSet := make(map[int32]bool)
		for _, b := range moved {
			movedSet[b] = true
		}
		counts := make([]int, n)
		for b, o := range after {
			if int(o) < 0 || int(o) >= n {
				return false
			}
			counts[o]++
			if after[b] != before[b] && !movedSet[int32(b)] {
				return false
			}
			if after[b] == before[b] && movedSet[int32(b)] {
				return false
			}
		}
		want := apportion(w2, 128)
		for i := range counts {
			if counts[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func randWeights(rng *rand.Rand, n int) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = rng.Float64() + 0.01
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	// Fix residual rounding so validWeights passes.
	adj := 1.0
	for _, x := range w[1:] {
		adj -= x
	}
	w[0] = adj
	return w
}

func TestHashPolicySetOwnerMap(t *testing.T) {
	p, _ := NewHashPolicy([]int{0}, 8, []float64{0.5, 0.5})
	m := []int32{0, 0, 0, 0, 0, 0, 0, 1}
	if err := p.SetOwnerMap(m); err != nil {
		t.Fatal(err)
	}
	if got := p.OwnerMap(); got[7] != 1 || got[0] != 0 {
		t.Fatalf("owner map = %v", got)
	}
	if err := p.SetOwnerMap([]int32{0}); err == nil {
		t.Error("short map accepted")
	}
	if err := p.SetOwnerMap([]int32{0, 0, 0, 0, 0, 0, 0, 9}); err == nil {
		t.Error("out-of-range owner accepted")
	}
}

func TestHashPolicyErrors(t *testing.T) {
	if _, err := NewHashPolicy([]int{0}, 0, []float64{1}); err == nil {
		t.Error("zero buckets accepted")
	}
	if _, err := NewHashPolicy([]int{0}, 8, []float64{0.2, 0.2}); err == nil {
		t.Error("bad weights accepted")
	}
	p, _ := NewHashPolicy([]int{0}, 8, []float64{0.5, 0.5})
	if p.Kind() != physical.PolicyHash {
		t.Error("kind")
	}
	if _, err := p.SetWeights([]float64{0.5}); err == nil {
		t.Error("arity change accepted")
	}
}

func TestApportionSumsExactly(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		w := randWeights(rng, n)
		total := 1 + rng.Intn(1000)
		counts := apportion(w, total)
		sum := 0
		for i, c := range counts {
			if c < 0 {
				return false
			}
			// No count may deviate from the exact share by ≥ 1.
			if math.Abs(float64(c)-w[i]*float64(total)) >= 1 {
				return false
			}
			sum += c
		}
		return sum == total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWeightedRoute(b *testing.B) {
	p, _ := NewWeightedPolicy([]float64{0.5, 0.3, 0.2})
	t := relation.Tuple{relation.Int(1)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Route(t)
	}
}

func BenchmarkHashRoute(b *testing.B) {
	p, _ := NewHashPolicy([]int{0}, 512, []float64{0.5, 0.5})
	t := relation.Tuple{relation.String("YAL00123C"), relation.String("payload")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Route(t)
	}
}

func BenchmarkHashPolicyRebalance(b *testing.B) {
	p, _ := NewHashPolicy([]int{0}, 512, []float64{0.5, 0.5})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			_, _ = p.SetWeights([]float64{0.9, 0.1})
		} else {
			_, _ = p.SetWeights([]float64{0.5, 0.5})
		}
	}
}

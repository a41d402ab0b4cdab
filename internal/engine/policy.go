package engine

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/physical"
	"repro/internal/relation"
)

// DistPolicy routes tuples to the instances of a consumer fragment. The
// Responder swaps the distribution at runtime; implementations are safe for
// concurrent use (the fragment driver routes while control messages mutate).
type DistPolicy interface {
	Kind() physical.PolicyKind
	// Route picks the consumer instance for a tuple. bucket is the routing
	// bucket for hash policies and -1 for weighted ones.
	Route(t relation.Tuple) (consumer int, bucket int32)
	// RouteBatch routes ts[i] into consumers[i] and buckets[i] under a
	// single policy-lock acquisition; the three slices share one length.
	// Routing decisions are identical to len(ts) sequential Route calls.
	RouteBatch(ts []relation.Tuple, consumers []int, buckets []int32)
	// RouteBucket picks the owner of a bucket (hash policies only).
	RouteBucket(bucket int32) int
	// SetWeights installs a new distribution vector W'. For hash policies
	// this re-derives the bucket→owner map, moving as few buckets as
	// possible; the returned moved list contains the reassigned buckets
	// (nil for weighted policies).
	SetWeights(w []float64) (moved []int32, err error)
	// OwnerMap returns a copy of the bucket→owner map, or nil.
	OwnerMap() []int32
	// SetOwnerMap installs an explicit bucket→owner map (hash only).
	SetOwnerMap(m []int32) error
}

// validWeights checks that w is a distribution over n consumers.
func validWeights(w []float64, n int) error {
	if len(w) != n {
		return fmt.Errorf("engine: weight vector has %d entries, want %d", len(w), n)
	}
	sum := 0.0
	for _, x := range w {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("engine: invalid weight %v", x)
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("engine: weights sum to %v, want 1", sum)
	}
	return nil
}

// WeightedPolicy routes each tuple independently of its content following
// the workload distribution vector W, using a smooth weighted round-robin
// (largest accumulated credit) so that any prefix of the stream closely
// matches W.
type WeightedPolicy struct {
	mu      sync.Mutex
	weights []float64
	credit  []float64
}

// NewWeightedPolicy builds the policy with the initial vector.
func NewWeightedPolicy(w []float64) (*WeightedPolicy, error) {
	if err := validWeights(w, len(w)); err != nil {
		return nil, err
	}
	p := &WeightedPolicy{
		weights: append([]float64(nil), w...),
		credit:  make([]float64, len(w)),
	}
	return p, nil
}

// Kind implements DistPolicy.
func (p *WeightedPolicy) Kind() physical.PolicyKind { return physical.PolicyWeighted }

// Route implements DistPolicy.
func (p *WeightedPolicy) Route(relation.Tuple) (int, int32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	best := 0
	for i := range p.credit {
		p.credit[i] += p.weights[i]
		if p.credit[i] > p.credit[best] {
			best = i
		}
	}
	p.credit[best] -= 1
	return best, -1
}

// RouteBatch implements DistPolicy.
func (p *WeightedPolicy) RouteBatch(ts []relation.Tuple, consumers []int, buckets []int32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k := range ts {
		best := 0
		for i := range p.credit {
			p.credit[i] += p.weights[i]
			if p.credit[i] > p.credit[best] {
				best = i
			}
		}
		p.credit[best] -= 1
		consumers[k], buckets[k] = best, -1
	}
}

// RouteBucket implements DistPolicy; weighted policies have no buckets.
func (p *WeightedPolicy) RouteBucket(int32) int {
	panic("engine: RouteBucket on weighted policy")
}

// SetWeights implements DistPolicy.
func (p *WeightedPolicy) SetWeights(w []float64) ([]int32, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := validWeights(w, len(p.weights)); err != nil {
		return nil, err
	}
	copy(p.weights, w)
	for i := range p.credit {
		p.credit[i] = 0
	}
	return nil, nil
}

// Extend grows the policy to cover one more consumer instance (live join),
// installing w as the new distribution vector over len(old)+1 consumers.
func (p *WeightedPolicy) Extend(w []float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := validWeights(w, len(p.weights)+1); err != nil {
		return err
	}
	p.weights = append([]float64(nil), w...)
	p.credit = make([]float64, len(w))
	return nil
}

// OwnerMap implements DistPolicy.
func (p *WeightedPolicy) OwnerMap() []int32 { return nil }

// SetOwnerMap implements DistPolicy.
func (p *WeightedPolicy) SetOwnerMap([]int32) error {
	return fmt.Errorf("engine: SetOwnerMap on weighted policy")
}

// HashPolicy routes by hash of the tuple's key columns through a
// bucket→owner map. Equal keys always share a bucket, so a consistent map
// across the build and probe exchanges of a join keeps matching tuples on
// the same instance. Rebalancing reassigns whole buckets, which is the
// granularity at which operator state moves.
type HashPolicy struct {
	keyOrds []int

	mu    sync.Mutex
	owner []int32
	n     int
}

// NewHashPolicy derives the initial owner map from the weight vector over n
// consumers with the given bucket count.
func NewHashPolicy(keyOrds []int, buckets int, w []float64) (*HashPolicy, error) {
	if buckets <= 0 {
		return nil, fmt.Errorf("engine: bucket count %d", buckets)
	}
	if err := validWeights(w, len(w)); err != nil {
		return nil, err
	}
	p := &HashPolicy{
		keyOrds: append([]int(nil), keyOrds...),
		owner:   make([]int32, buckets),
		n:       len(w),
	}
	// Initial assignment: contiguous ranges sized by largest remainder.
	counts := apportion(w, buckets)
	b := 0
	for c, cnt := range counts {
		for i := 0; i < cnt; i++ {
			p.owner[b] = int32(c)
			b++
		}
	}
	return p, nil
}

// Bucket computes the routing bucket of a tuple under this policy's keys.
func (p *HashPolicy) Bucket(t relation.Tuple) int32 {
	return int32(t.Hash(p.keyOrds) % uint64(len(p.owner)))
}

// Kind implements DistPolicy.
func (p *HashPolicy) Kind() physical.PolicyKind { return physical.PolicyHash }

// Route implements DistPolicy.
func (p *HashPolicy) Route(t relation.Tuple) (int, int32) {
	b := p.Bucket(t)
	p.mu.Lock()
	c := p.owner[b]
	p.mu.Unlock()
	return int(c), b
}

// RouteBatch implements DistPolicy.
func (p *HashPolicy) RouteBatch(ts []relation.Tuple, consumers []int, buckets []int32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := uint64(len(p.owner))
	for k, t := range ts {
		b := int32(t.Hash(p.keyOrds) % n)
		consumers[k], buckets[k] = int(p.owner[b]), b
	}
}

// RouteBucket implements DistPolicy.
func (p *HashPolicy) RouteBucket(b int32) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int(p.owner[b])
}

// SetWeights implements DistPolicy: it re-derives the owner map with
// minimal movement — only the buckets that must change owner to meet the
// new apportionment are reassigned — and returns the moved buckets.
func (p *HashPolicy) SetWeights(w []float64) ([]int32, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := validWeights(w, p.n); err != nil {
		return nil, err
	}
	target := apportion(w, len(p.owner))
	have := make([]int, p.n)
	for _, o := range p.owner {
		have[o]++
	}
	// Owners above target give their highest-numbered buckets to owners
	// below target, in ascending owner order for determinism.
	var moved []int32
	deficit := make([]int, p.n)
	for c := range deficit {
		deficit[c] = target[c] - have[c]
	}
	recv := 0
	for b := len(p.owner) - 1; b >= 0; b-- {
		o := p.owner[b]
		if deficit[o] >= 0 {
			continue
		}
		// Find the next consumer needing buckets.
		for recv < p.n && deficit[recv] <= 0 {
			recv++
		}
		if recv == p.n {
			break
		}
		deficit[o]++
		deficit[recv]--
		p.owner[b] = int32(recv)
		moved = append(moved, int32(b))
	}
	return moved, nil
}

// OwnerMap implements DistPolicy.
func (p *HashPolicy) OwnerMap() []int32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]int32(nil), p.owner...)
}

// SetOwnerMap implements DistPolicy.
func (p *HashPolicy) SetOwnerMap(m []int32) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(m) != len(p.owner) {
		return fmt.Errorf("engine: owner map has %d buckets, want %d", len(m), len(p.owner))
	}
	for _, o := range m {
		if int(o) < 0 || int(o) >= p.n {
			return fmt.Errorf("engine: owner %d out of range", o)
		}
	}
	copy(p.owner, m)
	return nil
}

// apportion distributes total units over weights by the largest-remainder
// method; the result sums exactly to total.
func apportion(w []float64, total int) []int {
	n := len(w)
	counts := make([]int, n)
	type rem struct {
		frac float64
		idx  int
	}
	rems := make([]rem, n)
	assigned := 0
	for i, x := range w {
		exact := x * float64(total)
		counts[i] = int(exact)
		assigned += counts[i]
		rems[i] = rem{frac: exact - float64(counts[i]), idx: i}
	}
	// Stable selection of the largest remainders.
	for assigned < total {
		best := -1
		for i := range rems {
			if rems[i].frac < 0 {
				continue
			}
			if best < 0 || rems[i].frac > rems[best].frac {
				best = i
			}
		}
		counts[rems[best].idx]++
		rems[best].frac = -1
		assigned++
	}
	return counts
}

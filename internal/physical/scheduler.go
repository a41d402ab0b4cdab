package physical

import (
	"fmt"

	"repro/internal/logical"
	"repro/internal/registry"
	"repro/internal/simnet"
)

// Options configures the scheduler.
type Options struct {
	// Coordinator hosts the top (result) fragment.
	Coordinator simnet.NodeID
}

// Schedule lowers a logical plan to a distributed physical plan following
// the approach of OGSA-DQP's optimiser (paper §2): scans run on the data
// resources hosting their tables; expensive operators (operation calls and
// joins) are parallelised across the registered computational resources
// with an initial distribution proportional to the registry's static speed
// claims; exchanges are inserted at every fragment boundary.
func Schedule(root logical.Node, reg *registry.Registry, opts Options) (*Plan, error) {
	if opts.Coordinator == "" {
		return nil, fmt.Errorf("physical: no coordinator node")
	}
	b := &builder{plan: &Plan{Coordinator: opts.Coordinator}, compute: reg.ComputeResources()}

	// Sort and Limit always sit at the plan root (the planner guarantees
	// it); peel them off and evaluate them inside the collect fragment at
	// the coordinator, where the full result stream is available.
	var collectWrap []logical.Node
	inner := root
peel:
	for {
		switch v := inner.(type) {
		case *logical.Limit:
			collectWrap = append(collectWrap, inner)
			inner = v.Child
		case *logical.Sort:
			collectWrap = append(collectWrap, inner)
			inner = v.Child
		default:
			break peel
		}
	}
	res, err := b.build(inner)
	if err != nil {
		return nil, err
	}
	// Top fragment: collect results at the coordinator.
	collect := &FragmentSpec{
		ID:             b.nextFragID(),
		Instances:      []simnet.NodeID{opts.Coordinator},
		InitialWeights: []float64{1},
		EstInputTuples: int(res.est),
	}
	b.cut(res, collect, PolicyWeighted, nil, false)
	collect.Root = &OpSpec{
		Kind:         KConsume,
		OutCols:      res.spec.OutCols,
		Exchange:     res.frag.Output.ID,
		NumProducers: len(res.frag.Instances),
	}
	// Re-apply the peeled Sort/Limit wrappers innermost-first.
	for i := len(collectWrap) - 1; i >= 0; i-- {
		switch v := collectWrap[i].(type) {
		case *logical.Sort:
			ords := make([]int, len(v.Keys))
			desc := make([]bool, len(v.Keys))
			for k, key := range v.Keys {
				ords[k] = key.Ord
				desc[k] = key.Desc
			}
			collect.Root = &OpSpec{
				Kind: KSort, Children: []*OpSpec{collect.Root},
				OutCols: collect.Root.OutCols, SortOrds: ords, SortDesc: desc,
			}
		case *logical.Limit:
			collect.Root = &OpSpec{
				Kind: KLimit, Children: []*OpSpec{collect.Root},
				OutCols: collect.Root.OutCols, LimitN: v.N,
			}
		}
	}
	b.plan.Fragments = append(b.plan.Fragments, collect)
	return b.plan, nil
}

type builder struct {
	plan    *Plan
	compute []registry.ComputeResource
	nFrag   int
	nExch   int
}

// buildResult tracks a subtree whose operator spec still lives in an open
// fragment.
type buildResult struct {
	spec *OpSpec
	frag *FragmentSpec
	est  float64 // estimated output cardinality
}

func (b *builder) nextFragID() string {
	b.nFrag++
	return fmt.Sprintf("F%d", b.nFrag)
}

func (b *builder) nextExchID() string {
	b.nExch++
	return fmt.Sprintf("E%d", b.nExch)
}

// computeWeights returns the initial distribution vector proportional to
// the registry's speed claims.
func (b *builder) computeWeights() []float64 {
	w := make([]float64, len(b.compute))
	total := 0.0
	for _, c := range b.compute {
		total += c.RelativeSpeed
	}
	for i, c := range b.compute {
		w[i] = c.RelativeSpeed / total
	}
	return w
}

func (b *builder) computeNodes() []simnet.NodeID {
	nodes := make([]simnet.NodeID, len(b.compute))
	for i, c := range b.compute {
		nodes[i] = c.Node
	}
	return nodes
}

// newPartitionedFragment opens a fragment cloned across the compute nodes.
func (b *builder) newPartitionedFragment(stateful bool, estInput float64) (*FragmentSpec, error) {
	if len(b.compute) == 0 {
		return nil, fmt.Errorf("physical: no computational resources registered")
	}
	f := &FragmentSpec{
		ID:             b.nextFragID(),
		Instances:      b.computeNodes(),
		InitialWeights: b.computeWeights(),
		Partitioned:    true,
		Stateful:       stateful,
		EstInputTuples: int(estInput),
	}
	b.plan.Fragments = append(b.plan.Fragments, f)
	return f, nil
}

// cut closes the producing fragment of res, wiring its output exchange into
// the consumer fragment.
func (b *builder) cut(res buildResult, consumer *FragmentSpec, policy PolicyKind, keyOrds []int, stateful bool) {
	res.frag.Root = res.spec
	res.frag.Output = &ExchangeSpec{
		ID:               b.nextExchID(),
		ConsumerFragment: consumer.ID,
		Policy:           policy,
		KeyOrds:          keyOrds,
		Stateful:         stateful,
		EstTuples:        int(res.est),
	}
}

// consume builds the KConsume leaf reading res's exchange.
func consume(res buildResult) *OpSpec {
	return &OpSpec{
		Kind:         KConsume,
		OutCols:      res.spec.OutCols,
		Exchange:     res.frag.Output.ID,
		NumProducers: len(res.frag.Instances),
	}
}

func (b *builder) build(n logical.Node) (buildResult, error) {
	switch v := n.(type) {
	case *logical.Scan:
		f := &FragmentSpec{
			ID:             b.nextFragID(),
			Instances:      []simnet.NodeID{v.Table.Node},
			InitialWeights: []float64{1},
			EstInputTuples: v.Table.Cardinality,
		}
		b.plan.Fragments = append(b.plan.Fragments, f)
		spec := &OpSpec{Kind: KScan, Table: v.Table.Name, OutCols: v.Schema().Columns()}
		return buildResult{spec: spec, frag: f, est: float64(v.Table.Cardinality)}, nil

	case *logical.Filter:
		child, err := b.build(v.Child)
		if err != nil {
			return buildResult{}, err
		}
		spec := &OpSpec{
			Kind:     KFilter,
			Children: []*OpSpec{child.spec},
			OutCols:  v.Schema().Columns(),
			Pred:     v.Conjuncts,
		}
		return buildResult{spec: spec, frag: child.frag, est: child.est * v.Selectivity}, nil

	case *logical.Project:
		child, err := b.build(v.Child)
		if err != nil {
			return buildResult{}, err
		}
		if j := child.spec; j.Kind == KJoin && j.Ords == nil {
			// Fuse into the join: it emits only the projected columns, so
			// the concatenated match is never built.
			j.Ords, j.OutCols = v.Ords, v.Schema().Columns()
			return child, nil
		}
		spec := &OpSpec{
			Kind:     KProject,
			Children: []*OpSpec{child.spec},
			OutCols:  v.Schema().Columns(),
			Ords:     v.Ords,
		}
		return buildResult{spec: spec, frag: child.frag, est: child.est}, nil

	case *logical.OpCall:
		child, err := b.build(v.Child)
		if err != nil {
			return buildResult{}, err
		}
		spec := &OpSpec{
			Kind:       KOpCall,
			OutCols:    v.Schema().Columns(),
			Fn:         v.Fn.Name,
			ArgOrds:    v.ArgOrds,
			ResultName: v.ResultName,
		}
		if child.frag.Partitioned {
			// Absorb into the already-partitioned fragment.
			spec.Children = []*OpSpec{child.spec}
			return buildResult{spec: spec, frag: child.frag, est: child.est}, nil
		}
		f, err := b.newPartitionedFragment(false, child.est)
		if err != nil {
			return buildResult{}, err
		}
		b.cut(child, f, PolicyWeighted, nil, false)
		spec.Children = []*OpSpec{consume(child)}
		return buildResult{spec: spec, frag: f, est: child.est}, nil

	case *logical.Join:
		left, err := b.build(v.Left)
		if err != nil {
			return buildResult{}, err
		}
		right, err := b.build(v.Right)
		if err != nil {
			return buildResult{}, err
		}
		f, err := b.newPartitionedFragment(true, left.est+right.est)
		if err != nil {
			return buildResult{}, err
		}
		// Both inputs hash-partition on the join keys so equal keys meet on
		// the same instance; the build side is stateful: its tuples become
		// the join's hash-table state.
		b.cut(left, f, PolicyHash, v.LeftKeys, true)
		b.cut(right, f, PolicyHash, v.RightKeys, false)
		spec := &OpSpec{
			Kind:      KJoin,
			Children:  []*OpSpec{consume(left), consume(right)},
			OutCols:   v.Schema().Columns(),
			BuildKeys: v.LeftKeys,
			ProbeKeys: v.RightKeys,
			BuildEst:  int(left.est),
		}
		return buildResult{spec: spec, frag: f, est: right.est}, nil

	case *logical.Aggregate:
		child, err := b.build(v.Child)
		if err != nil {
			return buildResult{}, err
		}
		spec := &OpSpec{
			Kind:      KAggregate,
			OutCols:   v.Schema().Columns(),
			GroupOrds: v.GroupOrds,
		}
		for _, a := range v.Aggs {
			spec.AggKinds = append(spec.AggKinds, uint8(a.Kind))
			spec.AggArgs = append(spec.AggArgs, a.ArgOrd)
		}
		// Output cardinality estimate: distinct groups, crudely 10% of the
		// input (one row for a global aggregate).
		est := child.est * 0.1
		if len(v.GroupOrds) == 0 {
			est = 1
		}
		if len(v.GroupOrds) > 0 {
			// Grouped: partition by the group keys across the compute
			// nodes; the aggregate is stateful, so rebalancing moves group
			// state through the recovery logs, exactly like the join.
			f, err := b.newPartitionedFragment(true, child.est)
			if err != nil {
				return buildResult{}, err
			}
			b.cut(child, f, PolicyHash, v.GroupOrds, true)
			spec.Children = []*OpSpec{consume(child)}
			return buildResult{spec: spec, frag: f, est: est}, nil
		}
		// Global aggregate: a single instance must see every tuple; it runs
		// on the first (fastest-claimed) compute resource.
		if len(b.compute) == 0 {
			return buildResult{}, fmt.Errorf("physical: no computational resources registered")
		}
		f := &FragmentSpec{
			ID:             b.nextFragID(),
			Instances:      []simnet.NodeID{b.compute[0].Node},
			InitialWeights: []float64{1},
			EstInputTuples: int(child.est),
		}
		b.plan.Fragments = append(b.plan.Fragments, f)
		b.cut(child, f, PolicyWeighted, nil, false)
		spec.Children = []*OpSpec{consume(child)}
		return buildResult{spec: spec, frag: f, est: est}, nil

	case *logical.Sort, *logical.Limit:
		return buildResult{}, fmt.Errorf("physical: %T must be the plan root", n)

	default:
		return buildResult{}, fmt.Errorf("physical: unsupported logical operator %T", n)
	}
}

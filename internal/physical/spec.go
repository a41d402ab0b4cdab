// Package physical defines the distributed physical plan model and the
// scheduler that lowers a logical plan into it.
//
// A physical plan is a set of fragments (the paper's "subplans") connected
// by exchanges (paper §2). Each fragment runs as one or more instances, one
// per machine, realising intra-operator (partitioned) parallelism: all
// clones of a partitioned fragment evaluate a different portion of the same
// dataset in parallel. The specs here are plain data — no closures — so a
// coordinator can ship them to remote evaluation services over the wire.
package physical

import (
	"fmt"
	"strings"

	"repro/internal/relation"
	"repro/internal/simnet"
	"repro/internal/sqlparse"
)

// OpKind enumerates physical operator kinds.
type OpKind uint8

// Physical operator kinds.
const (
	KScan      OpKind = iota + 1 // read a base table from the local GDS
	KFilter                      // conjunctive predicate
	KProject                     // column projection
	KOpCall                      // Web Service operation call per tuple
	KJoin                        // hash join: Children[0] build, Children[1] probe
	KConsume                     // exchange consumer: leaf receiving from another fragment
	KAggregate                   // bucketed hash aggregate (stateful)
	KSort                        // blocking sort (result site)
	KLimit                       // row-count truncation (result site)
)

// String names the kind.
func (k OpKind) String() string {
	switch k {
	case KScan:
		return "Scan"
	case KFilter:
		return "Filter"
	case KProject:
		return "Project"
	case KOpCall:
		return "OperationCall"
	case KJoin:
		return "HashJoin"
	case KConsume:
		return "Consume"
	case KAggregate:
		return "HashAggregate"
	case KSort:
		return "Sort"
	case KLimit:
		return "Limit"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// OpSpec describes one operator of a fragment's tree. Exactly the fields
// relevant to Kind are set.
type OpSpec struct {
	Kind     OpKind
	Children []*OpSpec
	// OutCols is the operator's output schema.
	OutCols []relation.Column

	// KScan.
	Table string
	// KFilter: conjuncts re-compiled on the evaluator against the child
	// schema.
	Pred []sqlparse.Comparison
	// KProject: the kept ordinals. KJoin: a fused projection, the output
	// ordinals over build ++ probe (nil emits the whole concatenation).
	Ords []int
	// KOpCall.
	Fn         string
	ArgOrds    []int
	ResultName string
	// KJoin: key ordinals into the respective child schemas.
	BuildKeys, ProbeKeys []int
	// BuildEst is the optimiser's estimate of the build-side cardinality
	// (total across instances); evaluators pre-size the join hash table
	// from it.
	BuildEst int
	// KConsume.
	Exchange     string
	NumProducers int
	// KAggregate: grouping-key ordinals plus per-aggregate kind and
	// argument ordinal (-1 for COUNT(*)). AggKinds mirrors
	// logical.AggKind values.
	GroupOrds []int
	AggKinds  []uint8
	AggArgs   []int
	// KSort.
	SortOrds []int
	SortDesc []bool
	// KLimit.
	LimitN int64
}

// OutSchema materialises the output schema.
func (o *OpSpec) OutSchema() *relation.Schema { return relation.NewSchema(o.OutCols...) }

// PolicyKind selects how an exchange distributes tuples over the consumer
// fragment's instances.
type PolicyKind uint8

// Distribution policies.
const (
	// PolicyWeighted routes each tuple to a consumer chosen by the current
	// workload distribution vector W; used for stateless consumers, where
	// any tuple may go anywhere.
	PolicyWeighted PolicyKind = iota + 1
	// PolicyHash routes by hash of key columns through a bucket→owner map
	// derived from W; required for stateful consumers (hash joins) so that
	// equal keys meet on the same instance.
	PolicyHash
)

// String names the policy.
func (p PolicyKind) String() string {
	switch p {
	case PolicyWeighted:
		return "weighted"
	case PolicyHash:
		return "hash"
	default:
		return fmt.Sprintf("PolicyKind(%d)", uint8(p))
	}
}

// ExchangeSpec describes the producing side of one exchange: how a
// fragment's output is partitioned over the consumer fragment's instances.
type ExchangeSpec struct {
	ID string
	// ConsumerFragment is the fragment whose KConsume leaf reads this
	// exchange.
	ConsumerFragment string
	Policy           PolicyKind
	// KeyOrds are the routing key ordinals in the producing fragment's
	// output schema (PolicyHash only).
	KeyOrds []int
	// Stateful marks exchanges whose tuples become operator state at the
	// consumer (hash-join build side): their recovery-log entries are never
	// released by acknowledgements while the query runs, so the log can
	// recreate the state elsewhere (paper §3.1, Response).
	Stateful bool
	// EstTuples is the optimiser's estimate of the total tuples the
	// exchange will carry; the Responder compares it with the producers'
	// routed counts to estimate query progress.
	EstTuples int
}

// FragmentSpec is one subplan: an operator tree evaluated by one or more
// instances.
type FragmentSpec struct {
	ID   string
	Root *OpSpec
	// Instances lists the machines running a clone of this fragment; the
	// i-th instance is addressed as ID#i.
	Instances []simnet.NodeID
	// Output describes the exchange this fragment produces into; nil for
	// the top fragment, which delivers to the query's result sink.
	Output *ExchangeSpec
	// InitialWeights is the scheduler's starting distribution vector W over
	// the instances of this fragment's *consumer* inputs — i.e. how
	// producers feeding this fragment split tuples among its instances.
	// len == len(Instances); sums to 1.
	InitialWeights []float64
	// Partitioned marks fragments with adaptable intra-operator
	// parallelism: the AQP components monitor and rebalance these.
	Partitioned bool
	// Stateful marks fragments holding operator state (hash joins):
	// rebalancing them requires retrospective (R1) state repartitioning.
	Stateful bool
	// EstInputTuples is the optimiser's estimate of the total tuples this
	// fragment will receive, used for progress estimation.
	EstInputTuples int
}

// InstanceID names fragment instance i.
func (f *FragmentSpec) InstanceID(i int) string { return fmt.Sprintf("%s#%d", f.ID, i) }

// Plan is a complete scheduled physical plan.
type Plan struct {
	// Fragments in bottom-up order: producers before consumers; the last
	// fragment is the top (result) fragment.
	Fragments []*FragmentSpec
	// Coordinator hosts the top fragment and the result sink.
	Coordinator simnet.NodeID
}

// Fragment returns the fragment with the given ID, or nil.
func (p *Plan) Fragment(id string) *FragmentSpec {
	for _, f := range p.Fragments {
		if f.ID == id {
			return f
		}
	}
	return nil
}

// Top returns the result fragment.
func (p *Plan) Top() *FragmentSpec { return p.Fragments[len(p.Fragments)-1] }

// Explain renders the plan for logs and examples.
func (p *Plan) Explain() string {
	var b strings.Builder
	for _, f := range p.Fragments {
		fmt.Fprintf(&b, "fragment %s on %v", f.ID, f.Instances)
		if f.Partitioned {
			fmt.Fprintf(&b, " partitioned W=%v", f.InitialWeights)
		}
		if f.Stateful {
			b.WriteString(" stateful")
		}
		if f.Output != nil {
			fmt.Fprintf(&b, " -> %s via %s(%s)", f.Output.ConsumerFragment, f.Output.ID, f.Output.Policy)
		}
		b.WriteByte('\n')
		var walk func(o *OpSpec, depth int)
		walk = func(o *OpSpec, depth int) {
			b.WriteString(strings.Repeat("  ", depth+1))
			switch o.Kind {
			case KScan:
				fmt.Fprintf(&b, "Scan(%s)", o.Table)
			case KFilter:
				conj := make([]string, len(o.Pred))
				for i, c := range o.Pred {
					conj[i] = c.SQL()
				}
				fmt.Fprintf(&b, "Filter(%s)", strings.Join(conj, " AND "))
			case KProject:
				fmt.Fprintf(&b, "Project(%v)", o.Ords)
			case KOpCall:
				fmt.Fprintf(&b, "OperationCall(%s)", o.Fn)
			case KJoin:
				fmt.Fprintf(&b, "HashJoin(build=%v probe=%v", o.BuildKeys, o.ProbeKeys)
				if o.Ords != nil {
					fmt.Fprintf(&b, " out=%v", o.Ords)
				}
				b.WriteByte(')')
			case KConsume:
				fmt.Fprintf(&b, "Consume(%s from %d producers)", o.Exchange, o.NumProducers)
			case KAggregate:
				fmt.Fprintf(&b, "HashAggregate(by %v, %d aggs)", o.GroupOrds, len(o.AggKinds))
			case KSort:
				fmt.Fprintf(&b, "Sort(%v)", o.SortOrds)
			case KLimit:
				fmt.Fprintf(&b, "Limit(%d)", o.LimitN)
			}
			b.WriteByte('\n')
			for _, c := range o.Children {
				walk(c, depth+1)
			}
		}
		walk(f.Root, 0)
	}
	return b.String()
}

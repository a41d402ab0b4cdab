// Package logical defines the logical query algebra and the planner that
// lowers a parsed SELECT statement into it, performing name resolution and
// type checking against the metadata catalog, classic predicate pushdown,
// and extraction of equi-join keys (the keys later drive hash partitioning
// of the join across evaluators).
package logical

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/relation"
	"repro/internal/scalar"
	"repro/internal/sqlparse"
)

// Node is a logical plan operator.
type Node interface {
	// Schema is the output schema.
	Schema() *relation.Schema
	// Children returns the input operators.
	Children() []Node
	// Label is the operator name with its parameters, single-line.
	Label() string
}

// Scan reads a base table from its Grid Data Service.
type Scan struct {
	Table catalog.TableMeta
	// Alias is the effective name the query binds the table to.
	Alias  string
	schema *relation.Schema
}

// NewScan builds a scan node; the output schema carries the alias.
func NewScan(meta catalog.TableMeta, alias string) *Scan {
	return &Scan{Table: meta, Alias: alias, schema: meta.Schema.WithAlias(alias)}
}

// Schema implements Node.
func (s *Scan) Schema() *relation.Schema { return s.schema }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// Label implements Node.
func (s *Scan) Label() string {
	return fmt.Sprintf("Scan(%s AS %s @%s, card=%d)", s.Table.Name, s.Alias, s.Table.Node, s.Table.Cardinality)
}

// Filter applies a conjunctive predicate.
type Filter struct {
	Child Node
	Pred  scalar.Predicate
	// Conjuncts is the predicate in AST form; physical plans ship this
	// form to evaluators, which re-compile it against the child schema.
	Conjuncts []sqlparse.Comparison
	// Selectivity is the planner's estimate of the fraction of tuples
	// passing the predicate.
	Selectivity float64
}

// Schema implements Node.
func (f *Filter) Schema() *relation.Schema { return f.Child.Schema() }

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Child} }

// Label implements Node.
func (f *Filter) Label() string { return fmt.Sprintf("Filter(%s)", f.Pred) }

// Join is an equi-join on the listed key ordinals (into the respective
// child schemas). The engine implements it as a partitioned hash join with
// the left input as the build side.
type Join struct {
	Left, Right Node
	// LeftKeys[i] joins with RightKeys[i].
	LeftKeys, RightKeys []int
	schema              *relation.Schema
}

// NewJoin builds a join node.
func NewJoin(left, right Node, leftKeys, rightKeys []int) *Join {
	return &Join{
		Left: left, Right: right,
		LeftKeys: leftKeys, RightKeys: rightKeys,
		schema: left.Schema().Concat(right.Schema()),
	}
}

// Schema implements Node.
func (j *Join) Schema() *relation.Schema { return j.schema }

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// Label implements Node.
func (j *Join) Label() string {
	pairs := make([]string, len(j.LeftKeys))
	for i := range j.LeftKeys {
		pairs[i] = fmt.Sprintf("%s=%s",
			j.Left.Schema().Column(j.LeftKeys[i]).QualifiedName(),
			j.Right.Schema().Column(j.RightKeys[i]).QualifiedName())
	}
	return fmt.Sprintf("HashJoin(%s)", strings.Join(pairs, ", "))
}

// OpCall invokes a Web Service operation per input tuple and appends the
// result as a new column — OGSA-DQP's operation_call operator.
type OpCall struct {
	Child Node
	Fn    catalog.FunctionMeta
	// ArgOrds are the input-column ordinals passed as arguments.
	ArgOrds []int
	// ResultName is the output column name.
	ResultName string
	schema     *relation.Schema
}

// NewOpCall builds an operation-call node.
func NewOpCall(child Node, fn catalog.FunctionMeta, argOrds []int, resultName string) *OpCall {
	out := child.Schema().Concat(relation.NewSchema(
		relation.Column{Name: resultName, Type: fn.ResultType},
	))
	return &OpCall{Child: child, Fn: fn, ArgOrds: argOrds, ResultName: resultName, schema: out}
}

// Schema implements Node.
func (o *OpCall) Schema() *relation.Schema { return o.schema }

// Children implements Node.
func (o *OpCall) Children() []Node { return []Node{o.Child} }

// Label implements Node.
func (o *OpCall) Label() string {
	return fmt.Sprintf("OperationCall(%s -> %s, cost=%gms)", o.Fn.Name, o.ResultName, o.Fn.CostMs)
}

// Project keeps the columns at the given ordinals, in order.
type Project struct {
	Child  Node
	Ords   []int
	schema *relation.Schema
}

// NewProject builds a projection node.
func NewProject(child Node, ords []int) *Project {
	return &Project{Child: child, Ords: ords, schema: child.Schema().Project(ords)}
}

// Schema implements Node.
func (p *Project) Schema() *relation.Schema { return p.schema }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Child} }

// Label implements Node.
func (p *Project) Label() string {
	names := make([]string, len(p.Ords))
	for i := range names {
		names[i] = p.schema.Column(i).QualifiedName()
	}
	return fmt.Sprintf("Project(%s)", strings.Join(names, ", "))
}

// Explain renders the plan tree, one operator per line, children indented.
func Explain(n Node) string {
	var b strings.Builder
	var walk func(Node, int)
	walk = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Label())
		b.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}

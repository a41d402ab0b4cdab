package logical

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/relation"
	"repro/internal/sqlparse"
)

func TestPlanGroupByCount(t *testing.T) {
	n := plan(t, "select i.ORF1, count(*) AS n from protein_interactions i group by i.ORF1")
	// The select list is the aggregate's own output, so no Project sits on
	// top; the one below keeps only the group column.
	agg, ok := n.(*Aggregate)
	if !ok {
		t.Fatalf("root = %T", n)
	}
	if in, ok := agg.Child.(*Project); !ok || len(in.Ords) != 1 || in.Ords[0] != 0 {
		t.Fatalf("aggregate input = %s", Explain(agg.Child))
	}
	if len(agg.GroupOrds) != 1 || agg.GroupOrds[0] != 0 {
		t.Fatalf("group ords = %v", agg.GroupOrds)
	}
	if len(agg.Aggs) != 1 || agg.Aggs[0].Kind != AggCount || agg.Aggs[0].ArgOrd != -1 {
		t.Fatalf("aggs = %+v", agg.Aggs)
	}
	s := n.Schema()
	if s.Len() != 2 || s.Column(1).Name != "n" || s.Column(1).Type != relation.TInt {
		t.Fatalf("schema = %v", s)
	}
}

func TestPlanGlobalAggregate(t *testing.T) {
	n := plan(t, "select count(*) from protein_sequences")
	agg, ok := n.(*Aggregate)
	if !ok {
		t.Fatalf("root = %T", n)
	}
	if len(agg.GroupOrds) != 0 {
		t.Fatalf("global aggregate has group ords %v", agg.GroupOrds)
	}
	// COUNT(*) reads no column, and a projection keeps at least one: the
	// scan feeds the aggregate directly.
	if _, ok := agg.Child.(*Scan); !ok {
		t.Fatalf("aggregate input = %T", agg.Child)
	}
}

func TestPlanAggregateSelectOrder(t *testing.T) {
	// Aggregate output is (groups..., aggs...); the projection must restore
	// the select-list order.
	n := plan(t, "select count(*) AS n, i.ORF1 from protein_interactions i group by i.ORF1")
	s := n.Schema()
	if s.Column(0).Name != "n" || s.Column(1).Name != "ORF1" {
		t.Fatalf("schema order = %v", s)
	}
}

func TestPlanAggregateKindsAndTypes(t *testing.T) {
	// protein tables have no numeric columns; extend the catalog locally.
	cat := demoCatalog()
	_ = cat.PutTable(tableWithInt(t))
	stmt := parseQ(t, "select k, sum(v) s, avg(v) a, min(v) mn, max(v) mx, count(v) c from nums group by k")
	n, err := Plan(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	s := n.Schema()
	wantTypes := []relation.Type{relation.TString, relation.TFloat, relation.TFloat,
		relation.TInt, relation.TInt, relation.TInt}
	for i, want := range wantTypes {
		if got := s.Column(i).Type; got != want {
			t.Errorf("column %d (%s): type %v, want %v", i, s.Column(i).Name, got, want)
		}
	}
	if !strings.Contains(Explain(n), "Aggregate(by [nums.k]") {
		t.Errorf("explain:\n%s", Explain(n))
	}
}

func TestPlanOrderByLimit(t *testing.T) {
	n := plan(t, "select p.ORF from protein_sequences p order by p.ORF desc limit 7")
	lim, ok := n.(*Limit)
	if !ok || lim.N != 7 {
		t.Fatalf("root = %#v", n)
	}
	srt, ok := lim.Child.(*Sort)
	if !ok || len(srt.Keys) != 1 || !srt.Keys[0].Desc || srt.Keys[0].Ord != 0 {
		t.Fatalf("sort = %#v", lim.Child)
	}
	if !strings.Contains(srt.Label(), "DESC") || !strings.Contains(lim.Label(), "7") {
		t.Error("labels")
	}
}

// TestExplainFilterOrderByLimit walks a plan with a column-to-column
// filter under ORDER BY … LIMIT: every node's label, children and schema.
func TestExplainFilterOrderByLimit(t *testing.T) {
	n := plan(t, "select i.ORF1 from protein_interactions i where i.ORF1 <> i.ORF2 order by i.ORF1 limit 3")
	if cols := n.Schema().Columns(); len(cols) != 1 || cols[0].Name != "ORF1" {
		t.Fatalf("root schema = %v", cols)
	}
	got := Explain(n)
	for _, want := range []string{"Limit(3)\n  Sort(i.ORF1)\n", "Filter(i.ORF1 <> i.ORF2)"} {
		if !strings.Contains(got, want) {
			t.Fatalf("explain lacks %q:\n%s", want, got)
		}
	}
}

func TestPlanOrderByAlias(t *testing.T) {
	n := plan(t, "select i.ORF1, count(*) AS n from protein_interactions i group by i.ORF1 order by n desc")
	if _, ok := n.(*Sort); !ok {
		t.Fatalf("root = %T", n)
	}
}

func TestPlanAggregateErrors(t *testing.T) {
	cases := map[string]string{
		"select i.ORF2, count(*) from protein_interactions i group by i.ORF1":   "must appear in GROUP BY",
		"select sum(*) from protein_interactions":                               "only valid for COUNT",
		"select sum(i.ORF1) from protein_interactions i":                        "non-numeric",
		"select count(i.ORF1, i.ORF2) from protein_interactions i":              "exactly one argument",
		"select EntropyAnalyser(p.sequence), count(*) from protein_sequences p": "cannot be mixed",
		"select count(nope) from protein_interactions i":                        "unknown column",
		"select i.ORF1 from protein_interactions i order by nope":               "ORDER BY",
		"select i.ORF1, count(*) from protein_interactions i group by nope":     "GROUP BY",
		"select avg(3) from protein_interactions i":                             "column reference",
	}
	for q, sub := range cases {
		err := planErr(t, q)
		if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(strings.Split(sub, " ")[0])) {
			t.Errorf("Plan(%q) error %q missing %q", q, err, sub)
		}
	}
}

func TestAggKindOf(t *testing.T) {
	for name, want := range map[string]AggKind{
		"count": AggCount, "SUM": AggSum, "Avg": AggAvg, "min": AggMin, "MAX": AggMax,
	} {
		got, ok := AggKindOf(name)
		if !ok || got != want {
			t.Errorf("AggKindOf(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := AggKindOf("EntropyAnalyser"); ok {
		t.Error("WS function classified as aggregate")
	}
	for _, k := range []AggKind{AggCount, AggSum, AggAvg, AggMin, AggMax} {
		if k.String() == "" || strings.Contains(k.String(), "AggKind(") {
			t.Errorf("String for %d", k)
		}
	}
}

// tableWithInt registers a numeric table for aggregate type tests.
func tableWithInt(t *testing.T) catalog.TableMeta {
	t.Helper()
	return catalog.TableMeta{
		Name: "nums",
		Schema: relation.NewSchema(
			relation.Column{Table: "nums", Name: "k", Type: relation.TString},
			relation.Column{Table: "nums", Name: "v", Type: relation.TInt},
		),
		Cardinality: 100, AvgTupleBytes: 20, Node: "data1",
	}
}

// wideTable registers a table with a column no aggregate reads (pad) and
// the group key last, so pruning both drops and reorders columns.
func wideTable() catalog.TableMeta {
	return catalog.TableMeta{
		Name: "wide",
		Schema: relation.NewSchema(
			relation.Column{Table: "wide", Name: "pad", Type: relation.TString},
			relation.Column{Table: "wide", Name: "v", Type: relation.TInt},
			relation.Column{Table: "wide", Name: "k", Type: relation.TString},
		),
		Cardinality: 100, AvgTupleBytes: 30, Node: "data1",
	}
}

// parseQ parses or fails the test.
func parseQ(t *testing.T, q string) *sqlparse.SelectStmt {
	t.Helper()
	stmt, err := sqlparse.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

func TestPlanHaving(t *testing.T) {
	n := plan(t, "select i.ORF1, count(*) AS n from protein_interactions i group by i.ORF1 having count(*) > 2")
	proj := n.(*Project)
	f, ok := proj.Child.(*Filter)
	if !ok {
		t.Fatalf("expected Filter above Aggregate, got %T", proj.Child)
	}
	agg, ok := f.Child.(*Aggregate)
	if !ok {
		t.Fatalf("filter child = %T", f.Child)
	}
	// The HAVING aggregate is hidden: select has 1 agg, the node has 2.
	if len(agg.Aggs) != 2 || agg.Aggs[1].Name != "_having1" {
		t.Fatalf("aggs = %+v", agg.Aggs)
	}
	// The final projection drops the hidden column.
	if n.Schema().Len() != 2 {
		t.Fatalf("output schema = %v", n.Schema())
	}
	if !strings.Contains(f.Pred.String(), "_having1 > 2") {
		t.Fatalf("pred = %v", f.Pred)
	}
}

func TestPlanHavingGroupColumn(t *testing.T) {
	n := plan(t, "select i.ORF1, count(*) from protein_interactions i group by i.ORF1 having i.ORF1 <> 'x'")
	if _, ok := n.(*Project).Child.(*Filter); !ok {
		t.Fatalf("no filter: %T", n.(*Project).Child)
	}
}

func TestPlanHavingErrors(t *testing.T) {
	cases := map[string]string{
		"select i.ORF1, count(*) from protein_interactions i group by i.ORF1 having i.ORF2 = 'x'":                "must appear in GROUP BY",
		"select i.ORF1, count(*) from protein_interactions i group by i.ORF1 having EntropyAnalyser(i.ORF1) > 1": "only aggregates",
		"select i.ORF1, count(*) from protein_interactions i group by i.ORF1 having sum(i.ORF2) > 1":             "non-numeric",
		"select i.ORF1, count(*) from protein_interactions i group by i.ORF1 having count(*) = 'x'":              "cannot compare",
	}
	for q, sub := range cases {
		err := planErr(t, q)
		if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(strings.Split(sub, " ")[0])) {
			t.Errorf("Plan(%q) error %q missing %q", q, err, sub)
		}
	}
}

// aggInput returns the aggregate under root and the projection feeding it,
// failing unless the planner put one there.
func aggInput(t *testing.T, root Node) (*Aggregate, *Project) {
	t.Helper()
	for n := root; ; n = n.Children()[0] {
		if agg, ok := n.(*Aggregate); ok {
			in, ok := agg.Child.(*Project)
			if !ok {
				t.Fatalf("aggregate input is %T, not a pruning Project:\n%s", agg.Child, Explain(root))
			}
			return agg, in
		}
		if len(n.Children()) == 0 {
			t.Fatalf("no aggregate in:\n%s", Explain(root))
		}
	}
}

func TestPlanPruneSumArgument(t *testing.T) {
	cat := demoCatalog()
	_ = cat.PutTable(tableWithInt(t))
	_ = cat.PutTable(wideTable())
	n, err := Plan(parseQ(t, "select sum(v) s, k from wide group by k"), cat)
	if err != nil {
		t.Fatal(err)
	}
	agg, in := aggInput(t, n)
	// Group column first, then the argument; pad never leaves the scan.
	if len(in.Ords) != 2 || in.Ords[0] != 2 || in.Ords[1] != 1 {
		t.Fatalf("pruning ords = %v, want [2 1]", in.Ords)
	}
	if agg.GroupOrds[0] != 0 || agg.Aggs[0].ArgOrd != 1 {
		t.Fatalf("remapped group %v, arg %d", agg.GroupOrds, agg.Aggs[0].ArgOrd)
	}
	// The select list reorders the aggregate's output, so a Project stays.
	top, ok := n.(*Project)
	if !ok || len(top.Ords) != 2 || top.Ords[0] != 1 || top.Ords[1] != 0 {
		t.Fatalf("root:\n%s", Explain(n))
	}
	if s := n.Schema(); s.Column(0).Name != "s" || s.Column(0).Type != relation.TFloat || s.Column(1).Name != "k" {
		t.Fatalf("schema = %v", s)
	}
	// A table whose every column the aggregate reads is not pruned.
	n, err = Plan(parseQ(t, "select k, sum(v) from nums group by k"), cat)
	if err != nil {
		t.Fatal(err)
	}
	if agg, ok := n.(*Aggregate); !ok || agg.Child.Label() != "Scan(nums AS nums @data1, card=100)" {
		t.Fatalf("plan:\n%s", Explain(n))
	}
}

func TestPlanPruneHavingGroupColumn(t *testing.T) {
	n := plan(t, "select i.ORF1, count(*) from protein_interactions i group by i.ORF1 having i.ORF1 <> 'x'")
	agg, in := aggInput(t, n)
	if len(in.Ords) != 1 || in.Ords[0] != 0 || agg.GroupOrds[0] != 0 {
		t.Fatalf("pruning ords = %v, group = %v", in.Ords, agg.GroupOrds)
	}
	f := n.(*Project).Child.(*Filter)
	if !strings.Contains(f.Pred.String(), "i.ORF1 <> x") {
		t.Fatalf("pred = %v", f.Pred)
	}
}

func TestPlanPruneHavingHiddenAggregate(t *testing.T) {
	cat := demoCatalog()
	_ = cat.PutTable(wideTable())
	n, err := Plan(parseQ(t, "select k, count(*) from wide group by k having max(v) > 3"), cat)
	if err != nil {
		t.Fatal(err)
	}
	agg, in := aggInput(t, n)
	// The hidden aggregate's argument is read, so it travels too.
	if len(in.Ords) != 2 || in.Ords[0] != 2 || in.Ords[1] != 1 {
		t.Fatalf("pruning ords = %v, want [2 1]", in.Ords)
	}
	if len(agg.Aggs) != 2 || agg.Aggs[1].Name != "_having1" || agg.Aggs[1].ArgOrd != 1 {
		t.Fatalf("aggs = %+v", agg.Aggs)
	}
	// The final projection drops the hidden column.
	if s := n.Schema(); s.Len() != 2 || s.Column(0).Name != "k" {
		t.Fatalf("schema = %v", s)
	}
}

func TestPlanPruneJoinInput(t *testing.T) {
	n := plan(t, "select p.ORF, count(*) from protein_sequences p, protein_interactions i where p.ORF = i.ORF1 group by p.ORF")
	agg, in := aggInput(t, n)
	if n != Node(agg) {
		t.Fatalf("identity projection over the aggregate was kept:\n%s", Explain(n))
	}
	if _, ok := in.Child.(*Join); !ok || len(in.Ords) != 1 || in.Ords[0] != 0 {
		t.Fatalf("aggregate input:\n%s", Explain(in))
	}
}

package logical

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/relation"
	"repro/internal/scalar"
	"repro/internal/sqlparse"
)

// Plan lowers a parsed statement to a logical plan, resolving names and
// types against the catalog. The shape is the classic
// Project(OpCall*(Filter?(Join*(Filter?(Scan))))) left-deep tree with
// single-table predicates pushed below the joins.
func Plan(stmt *sqlparse.SelectStmt, cat *catalog.Catalog) (Node, error) {
	node, _, err := PlanParams(stmt, cat)
	return node, err
}

// PlanParams is Plan for parameterised statements (plan templates): untyped
// parameter slots (explicit `?` markers) are typed by inference against the
// column they are compared with, and the inferred slot types are returned
// keyed by slot ordinal so the serving layer can type-check arguments before
// execution rather than deep inside an evaluator.
func PlanParams(stmt *sqlparse.SelectStmt, cat *catalog.Catalog) (Node, map[int]sqlparse.ParamType, error) {
	hints := make(map[int]sqlparse.ParamType)
	node, err := planStmt(stmt, cat, hints)
	if err != nil {
		return nil, nil, err
	}
	return node, hints, nil
}

func planStmt(stmt *sqlparse.SelectStmt, cat *catalog.Catalog, hints map[int]sqlparse.ParamType) (Node, error) {
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("logical: query has no FROM clause")
	}

	// Resolve FROM entries to scans keyed by effective name.
	type source struct {
		ref  sqlparse.TableRef
		scan *Scan
	}
	sources := make([]source, 0, len(stmt.From))
	byName := make(map[string]int)
	for _, ref := range stmt.From {
		meta, err := cat.Table(ref.Table)
		if err != nil {
			return nil, fmt.Errorf("logical: %w", err)
		}
		name := strings.ToLower(ref.EffectiveName())
		if _, dup := byName[name]; dup {
			return nil, fmt.Errorf("logical: duplicate table name or alias %q", ref.EffectiveName())
		}
		byName[name] = len(sources)
		sources = append(sources, source{ref: ref, scan: NewScan(meta, ref.EffectiveName())})
	}

	// Classify WHERE conjuncts.
	type joinEdge struct {
		leftTable, leftCol   string
		rightTable, rightCol string
		used                 bool
	}
	var (
		edges       []joinEdge
		tableFilter = make(map[int][]sqlparse.Comparison) // source index -> conjuncts
		postJoin    []sqlparse.Comparison
	)
	sourceOf := func(e sqlparse.Expr) (int, bool) {
		c, ok := e.(sqlparse.ColumnRef)
		if !ok {
			return -1, false
		}
		if c.Table != "" {
			idx, ok := byName[strings.ToLower(c.Table)]
			return idx, ok
		}
		// Unqualified: find the unique source that has the column.
		found := -1
		for i, s := range sources {
			if _, err := s.scan.Schema().IndexOf("", c.Name); err == nil {
				if found >= 0 {
					return -1, false // ambiguous; let full resolution report it
				}
				found = i
			}
		}
		return found, found >= 0
	}
	for _, cmp := range stmt.Where {
		li, lok := sourceOf(cmp.Left)
		ri, rok := sourceOf(cmp.Right)
		switch {
		case cmp.Op == sqlparse.OpEq && lok && rok && li != ri:
			lc := cmp.Left.(sqlparse.ColumnRef)
			rc := cmp.Right.(sqlparse.ColumnRef)
			edges = append(edges, joinEdge{
				leftTable: sources[li].ref.EffectiveName(), leftCol: lc.Name,
				rightTable: sources[ri].ref.EffectiveName(), rightCol: rc.Name,
			})
		case lok && rok && li != ri, lok && !rok && isColumn(cmp.Right), !lok && rok && isColumn(cmp.Left):
			postJoin = append(postJoin, cmp)
		case lok && (!rok || li == ri):
			tableFilter[li] = append(tableFilter[li], cmp)
		case rok:
			tableFilter[ri] = append(tableFilter[ri], cmp)
		default:
			postJoin = append(postJoin, cmp)
		}
	}

	// Push single-table filters onto their scans.
	inputs := make([]Node, len(sources))
	for i, s := range sources {
		var node Node = s.scan
		if conjs := tableFilter[i]; len(conjs) > 0 {
			pred, err := compileConjunction(conjs, node.Schema(), hints)
			if err != nil {
				return nil, err
			}
			node = &Filter{Child: node, Pred: pred, Conjuncts: conjs, Selectivity: estimateSelectivity(conjs)}
		}
		inputs[i] = node
	}

	// Greedy join ordering: a left-deep tree built smallest-first from the
	// catalog cardinalities scaled by the pushed filters' selectivity
	// estimates, constrained to connected expansions (no cartesian products,
	// which the engine does not support and the paper does not use). The
	// build side of every hash join is the accumulated tree, so starting
	// small and growing by the cheapest connected source keeps build tables
	// — the memory-governed state — as small as the estimates allow. Ties
	// break on FROM position, so estimate-free catalogs degrade to the old
	// literal FROM order.
	est := make([]float64, len(sources))
	for i, s := range sources {
		est[i] = float64(s.scan.Table.Cardinality) * estimateSelectivity(tableFilter[i])
	}
	// connected reports whether any edge links source i to the joined set.
	connected := func(i int, joined map[string]bool) bool {
		name := sources[i].ref.EffectiveName()
		for _, ed := range edges {
			switch {
			case joined[strings.ToLower(ed.leftTable)] && strings.EqualFold(ed.rightTable, name):
				return true
			case joined[strings.ToLower(ed.rightTable)] && strings.EqualFold(ed.leftTable, name):
				return true
			}
		}
		return false
	}
	start := 0
	for i := 1; i < len(sources); i++ {
		if est[i] < est[start] {
			start = i
		}
	}
	order := []int{start}
	placed := map[int]bool{start: true}
	joined := map[string]bool{strings.ToLower(sources[start].ref.EffectiveName()): true}
	for len(order) < len(sources) {
		next := -1
		for i := range sources {
			if placed[i] || !connected(i, joined) {
				continue
			}
			if next < 0 || est[i] < est[next] {
				next = i
			}
		}
		if next < 0 {
			// Some source is unreachable through equi-join edges; report the
			// first such table in FROM order.
			for i := range sources {
				if !placed[i] {
					return nil, fmt.Errorf("logical: no join predicate connects %q (cartesian products unsupported)", sources[i].ref.EffectiveName())
				}
			}
		}
		order = append(order, next)
		placed[next] = true
		joined[strings.ToLower(sources[next].ref.EffectiveName())] = true
	}

	current := inputs[order[0]]
	joined = map[string]bool{strings.ToLower(sources[order[0]].ref.EffectiveName()): true}
	for _, i := range order[1:] {
		name := sources[i].ref.EffectiveName()
		var leftKeys, rightKeys []int
		for e := range edges {
			ed := &edges[e]
			if ed.used {
				continue
			}
			var treeTable, treeCol, newCol string
			switch {
			case joined[strings.ToLower(ed.leftTable)] && strings.EqualFold(ed.rightTable, name):
				treeTable, treeCol, newCol = ed.leftTable, ed.leftCol, ed.rightCol
			case joined[strings.ToLower(ed.rightTable)] && strings.EqualFold(ed.leftTable, name):
				treeTable, treeCol, newCol = ed.rightTable, ed.rightCol, ed.leftCol
			default:
				continue
			}
			lk, err := current.Schema().IndexOf(treeTable, treeCol)
			if err != nil {
				return nil, fmt.Errorf("logical: join key: %w", err)
			}
			rk, err := inputs[i].Schema().IndexOf(name, newCol)
			if err != nil {
				return nil, fmt.Errorf("logical: join key: %w", err)
			}
			lt, rt := current.Schema().Column(lk).Type, inputs[i].Schema().Column(rk).Type
			if (lt == relation.TString) != (rt == relation.TString) {
				return nil, fmt.Errorf("logical: join key type mismatch: %v vs %v", lt, rt)
			}
			leftKeys = append(leftKeys, lk)
			rightKeys = append(rightKeys, rk)
			ed.used = true
		}
		if len(leftKeys) == 0 {
			return nil, fmt.Errorf("logical: no join predicate connects %q (cartesian products unsupported)", name)
		}
		current = NewJoin(current, inputs[i], leftKeys, rightKeys)
		joined[strings.ToLower(name)] = true
	}
	for _, e := range edges {
		if e.used {
			continue
		}
		// An equi-join edge between tables already joined becomes a filter.
		postJoin = append(postJoin, sqlparse.Comparison{
			Left:  sqlparse.ColumnRef{Table: e.leftTable, Name: e.leftCol},
			Op:    sqlparse.OpEq,
			Right: sqlparse.ColumnRef{Table: e.rightTable, Name: e.rightCol},
		})
	}

	if len(postJoin) > 0 {
		pred, err := compileConjunction(postJoin, current.Schema(), hints)
		if err != nil {
			return nil, err
		}
		current = &Filter{Child: current, Pred: pred, Conjuncts: postJoin, Selectivity: estimateSelectivity(postJoin)}
	}

	// Aggregation path: GROUP BY present or any aggregate in the list.
	if isAggregateQuery(stmt) {
		agg, err := planAggregate(stmt, current, hints)
		if err != nil {
			return nil, err
		}
		return planOrderLimit(stmt, agg)
	}

	// SELECT list: operation calls first, then the final projection.
	var ords []int
	for _, item := range stmt.Items {
		switch e := item.Expr.(type) {
		case sqlparse.Star:
			if item.Alias != "" {
				return nil, fmt.Errorf("logical: cannot alias *")
			}
			// Expand in declared FROM order, not join-tree order: greedy
			// join reordering must stay invisible in the output columns.
			for _, s := range sources {
				name := s.ref.EffectiveName()
				ss := s.scan.Schema()
				for ci := 0; ci < ss.Len(); ci++ {
					ord, err := current.Schema().IndexOf(name, ss.Column(ci).Name)
					if err != nil {
						return nil, fmt.Errorf("logical: %w", err)
					}
					ords = append(ords, ord)
				}
			}
		case sqlparse.FuncCall:
			fn, err := cat.Function(e.Name)
			if err != nil {
				return nil, fmt.Errorf("logical: %w", err)
			}
			if len(e.Args) != len(fn.ArgTypes) {
				return nil, fmt.Errorf("logical: %s expects %d arguments, got %d", fn.Name, len(fn.ArgTypes), len(e.Args))
			}
			argOrds := make([]int, len(e.Args))
			for ai, arg := range e.Args {
				cr, ok := arg.(sqlparse.ColumnRef)
				if !ok {
					return nil, fmt.Errorf("logical: %s argument %d must be a column reference", fn.Name, ai+1)
				}
				ord, err := current.Schema().IndexOf(cr.Table, cr.Name)
				if err != nil {
					return nil, fmt.Errorf("logical: %w", err)
				}
				if got := current.Schema().Column(ord).Type; got != fn.ArgTypes[ai] {
					return nil, fmt.Errorf("logical: %s argument %d: want %v, got %v", fn.Name, ai+1, fn.ArgTypes[ai], got)
				}
				argOrds[ai] = ord
			}
			name := item.Alias
			if name == "" {
				name = fn.Name
			}
			current = NewOpCall(current, fn, argOrds, name)
			ords = append(ords, current.Schema().Len()-1)
		case sqlparse.ColumnRef:
			ord, err := current.Schema().IndexOf(e.Table, e.Name)
			if err != nil {
				return nil, fmt.Errorf("logical: %w", err)
			}
			ords = append(ords, ord)
		default:
			return nil, fmt.Errorf("logical: unsupported select expression %s", item.Expr.SQL())
		}
	}
	return planOrderLimit(stmt, NewProject(current, ords))
}

// isAggregateQuery reports whether the statement needs an Aggregate node.
func isAggregateQuery(stmt *sqlparse.SelectStmt) bool {
	if len(stmt.GroupBy) > 0 {
		return true
	}
	for _, item := range stmt.Items {
		if call, ok := item.Expr.(sqlparse.FuncCall); ok {
			if _, isAgg := AggKindOf(call.Name); isAgg {
				return true
			}
		}
	}
	return false
}

// planAggregate lowers the GROUP BY / aggregate select list onto current.
// Every non-aggregate select item must be one of the grouping columns, as
// in standard SQL.
func planAggregate(stmt *sqlparse.SelectStmt, current Node, hints map[int]sqlparse.ParamType) (Node, error) {
	schema := current.Schema()
	groupOrds := make([]int, len(stmt.GroupBy))
	for i, col := range stmt.GroupBy {
		ord, err := schema.IndexOf(col.Table, col.Name)
		if err != nil {
			return nil, fmt.Errorf("logical: GROUP BY: %w", err)
		}
		groupOrds[i] = ord
	}
	inGroup := func(ord int) (int, bool) {
		for i, g := range groupOrds {
			if g == ord {
				return i, true
			}
		}
		return 0, false
	}

	// First pass: collect aggregate specs and classify select items.
	type outItem struct {
		groupIdx int // index into groupOrds, or -1
		aggIdx   int // index into aggs, or -1
	}
	var (
		aggs  []AggSpec
		items []outItem
	)
	for _, item := range stmt.Items {
		switch e := item.Expr.(type) {
		case sqlparse.ColumnRef:
			ord, err := schema.IndexOf(e.Table, e.Name)
			if err != nil {
				return nil, fmt.Errorf("logical: %w", err)
			}
			gi, ok := inGroup(ord)
			if !ok {
				return nil, fmt.Errorf("logical: column %s must appear in GROUP BY or inside an aggregate", e.SQL())
			}
			items = append(items, outItem{groupIdx: gi, aggIdx: -1})
		case sqlparse.FuncCall:
			kind, isAgg := AggKindOf(e.Name)
			if !isAgg {
				return nil, fmt.Errorf("logical: operation call %s cannot be mixed with aggregation", e.SQL())
			}
			spec := AggSpec{Kind: kind, ArgOrd: -1, Name: item.Alias}
			if spec.Name == "" {
				spec.Name = strings.ToLower(e.Name)
			}
			switch {
			case len(e.Args) == 1:
				if _, isStar := e.Args[0].(sqlparse.Star); isStar {
					if kind != AggCount {
						return nil, fmt.Errorf("logical: %s(*) is only valid for COUNT", kind)
					}
				} else {
					cr, ok := e.Args[0].(sqlparse.ColumnRef)
					if !ok {
						return nil, fmt.Errorf("logical: %s argument must be a column reference", kind)
					}
					ord, err := schema.IndexOf(cr.Table, cr.Name)
					if err != nil {
						return nil, fmt.Errorf("logical: %w", err)
					}
					argType := schema.Column(ord).Type
					if (kind == AggSum || kind == AggAvg) && argType == relation.TString {
						return nil, fmt.Errorf("logical: %s over non-numeric column %s", kind, cr.SQL())
					}
					spec.ArgOrd = ord
				}
			default:
				return nil, fmt.Errorf("logical: %s expects exactly one argument", kind)
			}
			items = append(items, outItem{groupIdx: -1, aggIdx: len(aggs)})
			aggs = append(aggs, spec)
		default:
			return nil, fmt.Errorf("logical: unsupported select expression %s in aggregation", item.Expr.SQL())
		}
	}
	if len(aggs) == 0 && len(groupOrds) == 0 {
		return nil, fmt.Errorf("logical: aggregation query without aggregates or grouping")
	}

	// HAVING conjuncts filter groups after aggregation. Each side referring
	// to an aggregate gets its own hidden aggregate column (uniquely named,
	// so the rewritten predicate compiles unambiguously on evaluators) that
	// the final projection drops again.
	var havingRewritten []sqlparse.Comparison
	if len(stmt.Having) > 0 {
		rewrite := func(e sqlparse.Expr) (sqlparse.Expr, error) {
			switch v := e.(type) {
			case sqlparse.IntLit, sqlparse.FloatLit, sqlparse.StringLit, sqlparse.Param:
				return e, nil
			case sqlparse.ColumnRef:
				ord, err := schema.IndexOf(v.Table, v.Name)
				if err != nil {
					return nil, fmt.Errorf("logical: HAVING: %w", err)
				}
				gi, ok := inGroup(ord)
				if !ok {
					return nil, fmt.Errorf("logical: HAVING column %s must appear in GROUP BY", v.SQL())
				}
				// Reference the group column by its position in the
				// aggregate output (same name, unique per qualifier).
				col := schema.Column(groupOrds[gi])
				return sqlparse.ColumnRef{Table: col.Table, Name: col.Name}, nil
			case sqlparse.FuncCall:
				kind, isAgg := AggKindOf(v.Name)
				if !isAgg {
					return nil, fmt.Errorf("logical: HAVING supports only aggregates, not %s", v.SQL())
				}
				spec := AggSpec{Kind: kind, ArgOrd: -1,
					Name: fmt.Sprintf("_having%d", len(aggs))}
				if len(v.Args) != 1 {
					return nil, fmt.Errorf("logical: %s expects exactly one argument", kind)
				}
				if _, isStar := v.Args[0].(sqlparse.Star); isStar {
					if kind != AggCount {
						return nil, fmt.Errorf("logical: %s(*) is only valid for COUNT", kind)
					}
				} else {
					cr, ok := v.Args[0].(sqlparse.ColumnRef)
					if !ok {
						return nil, fmt.Errorf("logical: %s argument must be a column reference", kind)
					}
					ord, err := schema.IndexOf(cr.Table, cr.Name)
					if err != nil {
						return nil, fmt.Errorf("logical: HAVING: %w", err)
					}
					if (kind == AggSum || kind == AggAvg) && schema.Column(ord).Type == relation.TString {
						return nil, fmt.Errorf("logical: %s over non-numeric column %s", kind, cr.SQL())
					}
					spec.ArgOrd = ord
				}
				aggs = append(aggs, spec)
				return sqlparse.ColumnRef{Name: spec.Name}, nil
			default:
				return nil, fmt.Errorf("logical: unsupported HAVING expression %s", e.SQL())
			}
		}
		for _, cmp := range stmt.Having {
			left, err := rewrite(cmp.Left)
			if err != nil {
				return nil, err
			}
			right, err := rewrite(cmp.Right)
			if err != nil {
				return nil, err
			}
			havingRewritten = append(havingRewritten, sqlparse.Comparison{
				Left: left, Op: cmp.Op, Right: right,
			})
		}
	}

	current, groupOrds, aggs = pruneAggregateInput(current, groupOrds, aggs)
	var node Node = NewAggregate(current, groupOrds, aggs)
	if len(havingRewritten) > 0 {
		pred, err := compileConjunction(havingRewritten, node.Schema(), hints)
		if err != nil {
			return nil, err
		}
		node = &Filter{Child: node, Pred: pred, Conjuncts: havingRewritten, Selectivity: 0.5}
	}
	// Project to the select-list order over the aggregate output schema
	// (group columns first, then aggregate columns; hidden HAVING
	// aggregates are dropped here). A projection that would copy every row
	// of the aggregate itself unchanged is left out.
	ords := make([]int, len(items))
	identity := len(items) == node.Schema().Len()
	for i, it := range items {
		if it.aggIdx >= 0 {
			ords[i] = len(groupOrds) + it.aggIdx
		} else {
			ords[i] = it.groupIdx
		}
		identity = identity && ords[i] == i
	}
	if _, direct := node.(*Aggregate); direct && identity {
		return node, nil
	}
	return NewProject(node, ords), nil
}

// pruneAggregateInput puts a projection under an aggregate so that only the
// columns it reads — the group columns, then the aggregate arguments, in
// first-use order — travel to it, and remaps the ordinals onto that
// projection. It leaves the input alone when the aggregate reads no column
// (a global COUNT(*): a projection must keep at least one) or every column.
func pruneAggregateInput(input Node, groupOrds []int, aggs []AggSpec) (Node, []int, []AggSpec) {
	var need []int
	use := func(ord int) int {
		if p := slices.Index(need, ord); p >= 0 {
			return p
		}
		need = append(need, ord)
		return len(need) - 1
	}
	group := make([]int, len(groupOrds))
	for i, o := range groupOrds {
		group[i] = use(o)
	}
	pruned := append([]AggSpec(nil), aggs...)
	for i := range pruned {
		if pruned[i].ArgOrd >= 0 {
			pruned[i].ArgOrd = use(pruned[i].ArgOrd)
		}
	}
	if len(need) == 0 || len(need) == input.Schema().Len() {
		return input, groupOrds, aggs
	}
	return NewProject(input, need), group, pruned
}

// planOrderLimit wraps the plan with Sort and Limit nodes when the
// statement asks for them; ORDER BY keys resolve against the output schema
// (select aliases included).
func planOrderLimit(stmt *sqlparse.SelectStmt, plan Node) (Node, error) {
	if len(stmt.OrderBy) > 0 {
		keys := make([]SortKey, len(stmt.OrderBy))
		for i, item := range stmt.OrderBy {
			ord, err := plan.Schema().IndexOf(item.Col.Table, item.Col.Name)
			if err != nil {
				return nil, fmt.Errorf("logical: ORDER BY: %w", err)
			}
			keys[i] = SortKey{Ord: ord, Desc: item.Desc}
		}
		plan = &Sort{Child: plan, Keys: keys}
	}
	if stmt.Limit != nil {
		plan = &Limit{Child: plan, N: *stmt.Limit}
	}
	return plan, nil
}

func isColumn(e sqlparse.Expr) bool {
	_, ok := e.(sqlparse.ColumnRef)
	return ok
}

// compileExpr lowers a scalar AST expression (column or literal) against a
// schema.
func compileExpr(e sqlparse.Expr, schema *relation.Schema) (scalar.Expr, error) {
	switch v := e.(type) {
	case sqlparse.ColumnRef:
		ord, err := schema.IndexOf(v.Table, v.Name)
		if err != nil {
			return nil, fmt.Errorf("logical: %w", err)
		}
		col := schema.Column(ord)
		return scalar.Col(ord, col.Type, col.QualifiedName()), nil
	case sqlparse.IntLit:
		return scalar.Const(relation.Int(v.Value)), nil
	case sqlparse.FloatLit:
		return scalar.Const(relation.Float(v.Value)), nil
	case sqlparse.StringLit:
		return scalar.Const(relation.String(v.Value)), nil
	case sqlparse.Param:
		// Parameter slots compile to a typed placeholder constant: template
		// plans are never executed directly, only after BindParams replaces
		// the slots with literals, so only the type matters here.
		switch v.Hint {
		case sqlparse.PInt:
			return scalar.Const(relation.Int(0)), nil
		case sqlparse.PFloat:
			return scalar.Const(relation.Float(0)), nil
		case sqlparse.PString:
			return scalar.Const(relation.String("")), nil
		default:
			return nil, fmt.Errorf("logical: cannot infer type of parameter ?%d", v.Ord)
		}
	case sqlparse.FuncCall:
		return nil, fmt.Errorf("logical: operation calls are not allowed in predicates (%s)", v.SQL())
	default:
		return nil, fmt.Errorf("logical: unsupported expression %s", e.SQL())
	}
}

var opMap = map[sqlparse.CompareOp]scalar.Op{
	sqlparse.OpEq: scalar.Eq,
	sqlparse.OpNe: scalar.Ne,
	sqlparse.OpLt: scalar.Lt,
	sqlparse.OpLe: scalar.Le,
	sqlparse.OpGt: scalar.Gt,
	sqlparse.OpGe: scalar.Ge,
}

// inferHint derives the parameter type an untyped slot must carry from the
// expression on the other side of its comparison.
func inferHint(opposite sqlparse.Expr, schema *relation.Schema) (sqlparse.ParamType, error) {
	switch v := opposite.(type) {
	case sqlparse.ColumnRef:
		ord, err := schema.IndexOf(v.Table, v.Name)
		if err != nil {
			return sqlparse.PAny, fmt.Errorf("logical: %w", err)
		}
		switch schema.Column(ord).Type {
		case relation.TInt:
			return sqlparse.PInt, nil
		case relation.TFloat:
			return sqlparse.PFloat, nil
		case relation.TString:
			return sqlparse.PString, nil
		}
	case sqlparse.IntLit:
		return sqlparse.PInt, nil
	case sqlparse.FloatLit:
		return sqlparse.PFloat, nil
	case sqlparse.StringLit:
		return sqlparse.PString, nil
	case sqlparse.Param:
		if v.Hint != sqlparse.PAny {
			return v.Hint, nil
		}
	}
	return sqlparse.PAny, fmt.Errorf("logical: cannot infer parameter type from %s", opposite.SQL())
}

// typeParam resolves an untyped parameter slot against the other side of its
// comparison, recording the inferred type in hints.
func typeParam(e, opposite sqlparse.Expr, schema *relation.Schema, hints map[int]sqlparse.ParamType) (sqlparse.Expr, error) {
	p, ok := e.(sqlparse.Param)
	if !ok {
		return e, nil
	}
	if p.Hint == sqlparse.PAny {
		hint, err := inferHint(opposite, schema)
		if err != nil {
			return nil, fmt.Errorf("%w (parameter ?%d)", err, p.Ord)
		}
		p.Hint = hint
	}
	if hints != nil {
		hints[p.Ord] = p.Hint
	}
	return p, nil
}

func compileConjunction(conjs []sqlparse.Comparison, schema *relation.Schema, hints map[int]sqlparse.ParamType) (scalar.Predicate, error) {
	preds := make([]scalar.Predicate, 0, len(conjs))
	for _, c := range conjs {
		lhs, err := typeParam(c.Left, c.Right, schema, hints)
		if err != nil {
			return nil, err
		}
		rhs, err := typeParam(c.Right, c.Left, schema, hints)
		if err != nil {
			return nil, err
		}
		l, err := compileExpr(lhs, schema)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(rhs, schema)
		if err != nil {
			return nil, err
		}
		op, ok := opMap[c.Op]
		if !ok {
			return nil, fmt.Errorf("logical: unsupported operator %q", c.Op)
		}
		p, err := scalar.Compare(l, op, r)
		if err != nil {
			return nil, fmt.Errorf("logical: %w", err)
		}
		preds = append(preds, p)
	}
	return scalar.And(preds...), nil
}

// estimateSelectivity is the crude textbook estimate the optimiser uses for
// initial scheduling: 0.1 per equality conjunct, 0.3 per inequality.
func estimateSelectivity(conjs []sqlparse.Comparison) float64 {
	sel := 1.0
	for _, c := range conjs {
		if c.Op == sqlparse.OpEq {
			sel *= 0.1
		} else {
			sel *= 0.3
		}
	}
	return sel
}

// CompilePredicate lowers AST conjuncts against a schema; evaluation
// services use it to re-compile the predicates shipped inside physical
// plans.
func CompilePredicate(conjs []sqlparse.Comparison, schema *relation.Schema) (scalar.Predicate, error) {
	return compileConjunction(conjs, schema, nil)
}

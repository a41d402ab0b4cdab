package services

import (
	"context"
	"fmt"

	"repro/internal/qerr"
	"repro/internal/sqlparse"
)

// Stmt is a prepared statement: the query is parsed, normalized and
// template-planned once, and each Execute only binds arguments into a clone
// of the cached plan. Statements are safe for concurrent Execute and remain
// valid for the life of their coordinator (topology changes transparently
// re-plan on the next Execute).
type Stmt struct {
	g *GDQS
	// key/template/slots are the normalized form; Execute starts from here,
	// skipping parse and normalize entirely.
	key      string
	template *sqlparse.SelectStmt
	slots    []sqlparse.Slot
	numUser  int
}

// Prepare parses and plans a query once for repeated execution. The query
// may contain explicit `?` parameter markers in WHERE/HAVING comparisons;
// their types are inferred from the columns they are compared with.
func (g *GDQS) Prepare(query string) (*Stmt, error) {
	key, template, slots, err := sqlparse.NormalizeSQL(query)
	if err != nil {
		return nil, qerr.Plan("parse", err)
	}
	// Surface planning errors now rather than on first Execute; this also
	// warms the plan cache. Parameter-free statements tolerate template
	// failures — Execute falls back to direct planning for them.
	if _, err := g.templateFor(key, template, slots); err != nil && sqlparse.NumUserParams(slots) > 0 {
		return nil, err
	}
	return &Stmt{
		g: g, key: key, template: template, slots: slots,
		numUser: sqlparse.NumUserParams(slots),
	}, nil
}

// NumParams reports how many `?` arguments Execute expects.
func (s *Stmt) NumParams() int { return s.numUser }

// Execute runs the prepared statement with the given arguments — one Go
// value (int/int64, float64, or string) per `?` marker, in statement order.
// Concurrency, admission and error semantics match GDQS.Execute.
func (s *Stmt) Execute(ctx context.Context, args ...any) (*QueryResult, error) {
	exprs, err := litArgs(args)
	if err != nil {
		return nil, qerr.Plan("bind", err)
	}
	return s.g.executeTemplate(ctx, s.key, s.template, s.slots, exprs)
}

// litArgs converts Go argument values to literal expressions.
func litArgs(args []any) ([]sqlparse.Expr, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]sqlparse.Expr, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case int:
			out[i] = sqlparse.IntLit{Value: int64(v)}
		case int32:
			out[i] = sqlparse.IntLit{Value: int64(v)}
		case int64:
			out[i] = sqlparse.IntLit{Value: v}
		case float32:
			out[i] = sqlparse.FloatLit{Value: float64(v)}
		case float64:
			out[i] = sqlparse.FloatLit{Value: v}
		case string:
			out[i] = sqlparse.StringLit{Value: v}
		case sqlparse.Expr:
			out[i] = v
		default:
			return nil, fmt.Errorf("argument %d: unsupported type %T", i, a)
		}
	}
	return out, nil
}

package engine

import (
	"fmt"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/scalar"
	"repro/internal/ws"
)

// TableScan reads a base table from the node's Grid Data Service store.
// In-memory tables are handed out by reference from their tuple slice;
// stored tables decode whole blocks at a time into the scan's arena, each
// block reserved against the query's memory budget while it is decoded (see
// scan.go).
type TableScan struct {
	Table string

	// claim, when set, is the morsel counter the scan shares with its
	// sibling worker clones: each batch-sized run of an in-memory table, or
	// each block of a stored one, goes to the clone that claims its index.
	claim *atomic.Int64

	ctx    *ExecContext
	tuples []relation.Tuple
	blocks *blockScan // stored tables
	pos    int
	costs  []float64 // per-tuple base costs, reused across batches
}

// Open implements Iterator.
func (s *TableScan) Open(ctx *ExecContext) error {
	if ctx.Store == nil {
		return fmt.Errorf("engine: scan of %q on a node with no data store", s.Table)
	}
	tbl, err := ctx.Store.Table(s.Table)
	if err != nil {
		return err
	}
	s.ctx = ctx
	s.pos = 0
	br, stored, err := tbl.OpenBlocks()
	if err != nil {
		return err
	}
	if stored {
		s.blocks = newBlockScan(ctx.Mem, obs.Default().Counter(obs.MScanBlocksRead), br, s.claim)
		return nil
	}
	s.tuples = tbl.Tuples
	return nil
}

// NextBatch implements Iterator: in-memory tables hand out tuples by
// reference (zero copies, zero allocations); stored tables fill the batch a
// block at a time. Either way the batch's scan cost is charged in one
// node/meter round trip.
func (s *TableScan) NextBatch(dst *relation.Batch) (int, error) {
	if s.blocks != nil {
		n, err := s.blocks.fill(dst)
		chargeScanBatch(s.ctx, dst.Tuples, &s.costs)
		return n, err
	}
	dst.Rewind()
	n, at := dst.Cap(), s.pos
	if s.claim != nil {
		at = int(s.claim.Add(int64(n))) - n
	} else {
		s.pos += n
	}
	if at >= len(s.tuples) {
		return 0, nil
	}
	chunk := s.tuples[at:min(at+n, len(s.tuples))]
	chargeScanBatch(s.ctx, chunk, &s.costs)
	dst.AppendAll(chunk)
	return len(chunk), nil
}

// Close implements Iterator.
func (s *TableScan) Close() error {
	var err error
	if s.blocks != nil {
		err = s.blocks.close()
		s.blocks = nil
	}
	s.tuples = nil
	s.costs = nil
	return err
}

// Select filters tuples by a compiled predicate.
type Select struct {
	Child Iterator
	Pred  scalar.Predicate

	ctx *ExecContext
}

// Open implements Iterator.
func (s *Select) Open(ctx *ExecContext) error {
	s.ctx = ctx
	return s.Child.Open(ctx)
}

// NextBatch implements Iterator: it fills dst from the child and
// filters it in place by compaction, so surviving tuples are forwarded
// without re-staging (a tuple that passes before the first miss is never
// rewritten at all) and the filter cost is charged once per batch.
// Low-selectivity predicates loop over input batches until at least one
// tuple survives, so n == 0 still means end of stream.
func (s *Select) NextBatch(dst *relation.Batch) (int, error) {
	for {
		n, err := s.Child.NextBatch(dst)
		if err != nil || n == 0 {
			return n, err
		}
		s.ctx.chargeN(s.ctx.Costs.FilterMs, n)
		ts := dst.Tuples
		i := 0
		for i < n && s.Pred.Matches(ts[i]) {
			i++
		}
		if i == n {
			return n, nil
		}
		w := i
		for i++; i < n; i++ {
			if s.Pred.Matches(ts[i]) {
				ts[w] = ts[i]
				w++
			}
		}
		dst.Tuples = ts[:w]
		if w > 0 {
			return w, nil
		}
	}
}

// Close implements Iterator.
func (s *Select) Close() error {
	return s.Child.Close()
}

// Project keeps the columns at the given ordinals.
type Project struct {
	Child Iterator
	Ords  []int

	ctx   *ExecContext
	arena relation.Arena
}

// Open implements Iterator.
func (p *Project) Open(ctx *ExecContext) error {
	p.ctx = ctx
	return p.Child.Open(ctx)
}

// NextBatch implements Iterator: it fills dst from the child and
// replaces each tuple with its projection in place. The whole batch's output
// values are carved from the arena in one allocation, and the per-tuple
// charge is bundled.
func (p *Project) NextBatch(dst *relation.Batch) (int, error) {
	n, err := p.Child.NextBatch(dst)
	if err != nil || n == 0 {
		return 0, err
	}
	p.ctx.chargeN(p.ctx.Costs.ProjectMs, n)
	w := len(p.Ords)
	vals := p.arena.Alloc(n * w)
	for i, t := range dst.Tuples {
		out := vals[i*w : (i+1)*w : (i+1)*w]
		for k, o := range p.Ords {
			out[k] = t[o]
		}
		dst.Tuples[i] = out
	}
	return n, nil
}

// Close implements Iterator.
func (p *Project) Close() error {
	return p.Child.Close()
}

// OperationCall invokes a Web Service operation per tuple and appends the
// result column — OGSA-DQP's operation_call operator, the expensive step of
// the paper's Q1. Its per-invocation cost is charged through the node's
// perturbation model, which is how "the cost of the WS call in one machine"
// is made "exactly 10 times more than in the other" (§3.2).
type OperationCall struct {
	Fn      string
	ArgOrds []int
	Child   Iterator

	ctx   *ExecContext
	svc   ws.Service
	args  []relation.Value
	arena relation.Arena
}

// Open implements Iterator.
func (o *OperationCall) Open(ctx *ExecContext) error {
	if ctx.Services == nil {
		return fmt.Errorf("engine: no web services available for %q", o.Fn)
	}
	svc, err := ctx.Services.Lookup(o.Fn)
	if err != nil {
		return err
	}
	o.ctx = ctx
	o.svc = svc
	o.args = make([]relation.Value, len(o.ArgOrds))
	return o.Child.Open(ctx)
}

// NextBatch implements Iterator. Invocations stay one per tuple — each
// WS call is one unit of perturbable work, which the paper's Q1 experiments
// inflate per call — but the cost accounting and output construction are
// batched.
func (o *OperationCall) NextBatch(dst *relation.Batch) (int, error) {
	n, err := o.Child.NextBatch(dst)
	if err != nil || n == 0 {
		return 0, err
	}
	o.ctx.chargeN(o.svc.BaseCostMs(), n)
	for i, t := range dst.Tuples {
		for k, ord := range o.ArgOrds {
			o.args[k] = t[ord]
		}
		v, err := o.svc.Invoke(o.args)
		if err != nil {
			dst.Tuples = dst.Tuples[:i]
			return i, fmt.Errorf("engine: %s: %w", o.Fn, err)
		}
		out := o.arena.Alloc(len(t) + 1)
		copy(out, t)
		out[len(t)] = v
		dst.Tuples[i] = out
	}
	return n, nil
}

// Close implements Iterator.
func (o *OperationCall) Close() error {
	return o.Child.Close()
}

// sliceIterator feeds a fixed tuple slice; tests and examples use it as a
// lightweight source.
type sliceIterator struct {
	tuples []relation.Tuple
	pos    int
	costMs float64
	ctx    *ExecContext
}

// NewSliceSource returns an iterator over the given tuples charging costMs
// per tuple.
func NewSliceSource(tuples []relation.Tuple, costMs float64) Iterator {
	return &sliceIterator{tuples: tuples, costMs: costMs}
}

func (s *sliceIterator) Open(ctx *ExecContext) error {
	s.ctx = ctx
	s.pos = 0
	return nil
}

// NextBatch implements Iterator.
func (s *sliceIterator) NextBatch(dst *relation.Batch) (int, error) {
	dst.Rewind()
	n := len(s.tuples) - s.pos
	if n <= 0 {
		return 0, nil
	}
	if c := dst.Cap(); n > c {
		n = c
	}
	chunk := s.tuples[s.pos : s.pos+n]
	s.pos += n
	if s.costMs > 0 {
		s.ctx.chargeN(s.costMs, n)
	}
	dst.AppendAll(chunk)
	return n, nil
}

func (s *sliceIterator) Close() error { return nil }

package engine

import (
	"repro/internal/relation"
	"repro/internal/storage"
)

// topNMaxN caps the LIMIT under which the planner fuses ORDER BY + LIMIT
// into a bounded-heap TopN instead of a full (possibly external) sort:
// beyond it the retained state stops being meaningfully "bounded" and the
// external sort's spill governance is the better tool.
const topNMaxN = 64 << 10

// TopN replaces a Sort feeding a Limit when N is small: it retains only the
// N smallest tuples (under the sort ordering) in a bounded max-heap while
// consuming its input, then emits them in order. Output is byte-identical
// to stable-sort-then-limit — ties are broken by input arrival order, which
// is exactly what a stable sort preserves — so M1 monitoring windows and R1
// replay see the same stream either way. State is bounded by N tuples and
// accounted against the memory budget; unlike Sort it never needs to spill.
type TopN struct {
	Child Iterator
	Ords  []int
	Desc  []bool
	N     int64

	ctx    *ExecContext
	acct   *storage.BudgetAcct
	in     *relation.Batch // input batch, owned by the operator
	heap   []topEntry      // max-heap: root is the worst retained tuple
	seq    int64
	held   int64 // bytes reserved for retained tuples
	sorted []relation.Tuple
	pos    int
	done   bool
}

// topEntry pairs a retained tuple with its input arrival index, the
// tie-breaker that reproduces stable-sort order.
type topEntry struct {
	t   relation.Tuple
	seq int64
}

// Open implements Iterator.
func (o *TopN) Open(ctx *ExecContext) error {
	o.ctx = ctx
	o.acct = ctx.memAcct()
	o.in = relation.GetBatch()
	return o.Child.Open(ctx)
}

// after reports whether a sorts after b in the output ordering (keys, then
// arrival order) — the max-heap's "greater".
func (o *TopN) after(a, b topEntry) bool {
	for i, ord := range o.Ords {
		cmp := a.t[ord].Compare(b.t[ord])
		if o.Desc[i] {
			cmp = -cmp
		}
		if cmp != 0 {
			return cmp > 0
		}
	}
	return a.seq > b.seq
}

// push inserts e, growing the heap.
func (o *TopN) push(e topEntry) {
	o.heap = append(o.heap, e)
	i := len(o.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !o.after(o.heap[i], o.heap[p]) {
			break
		}
		o.heap[i], o.heap[p] = o.heap[p], o.heap[i]
		i = p
	}
}

// siftDown restores the heap after the root changed.
func (o *TopN) siftDown(i int) {
	n := len(o.heap)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && o.after(o.heap[l], o.heap[big]) {
			big = l
		}
		if r < n && o.after(o.heap[r], o.heap[big]) {
			big = r
		}
		if big == i {
			return
		}
		o.heap[i], o.heap[big] = o.heap[big], o.heap[i]
		i = big
	}
}

// consume drains the child, retaining the top N.
func (o *TopN) consume() error {
	for {
		n, err := o.Child.NextBatch(o.in)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		o.ctx.chargeFlat(o.ctx.Costs.SortMs * float64(n))
		for _, t := range o.in.Tuples {
			o.offer(t)
		}
	}
	// Pop worst-first into the tail of the output slice: what remains is
	// ascending output order.
	o.sorted = make([]relation.Tuple, len(o.heap))
	for i := len(o.heap) - 1; i >= 0; i-- {
		o.sorted[i] = o.heap[0].t
		last := len(o.heap) - 1
		o.heap[0] = o.heap[last]
		o.heap = o.heap[:last]
		if len(o.heap) > 0 {
			o.siftDown(0)
		}
	}
	o.heap = nil
	return nil
}

// offer retains t if it belongs to the top N seen so far.
func (o *TopN) offer(t relation.Tuple) {
	e := topEntry{t: t, seq: o.seq}
	o.seq++
	if int64(len(o.heap)) < o.N {
		o.push(e)
		sz := sortTupleBytes(t)
		o.held += sz
		o.acct.Reserve(sz)
		return
	}
	if !o.after(e, o.heap[0]) {
		// e beats the current worst: swap reservations and replace the
		// root.
		oldSz, newSz := sortTupleBytes(o.heap[0].t), sortTupleBytes(t)
		o.acct.Reserve(newSz)
		o.acct.Release(oldSz)
		o.held += newSz - oldSz
		o.heap[0] = e
		o.siftDown(0)
	}
}

// NextBatch implements Iterator: the first call consumes the whole input.
func (o *TopN) NextBatch(dst *relation.Batch) (int, error) {
	if !o.done {
		if err := o.consume(); err != nil {
			return 0, err
		}
		o.done = true
	}
	return emitSorted(dst, o.sorted, &o.pos), nil
}

// Close implements Iterator: retained-state reservations are released here,
// so an aborted query zeroes mem_inflight_bytes.
func (o *TopN) Close() error {
	if o.held > 0 {
		o.acct.Release(o.held)
		o.held = 0
	}
	o.heap = nil
	o.sorted = nil
	if o.in != nil {
		o.in.Release()
		o.in = nil
	}
	return o.Child.Close()
}

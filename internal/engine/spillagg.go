package engine

import (
	"fmt"
	"slices"

	"repro/internal/relation"
)

// Aggregate spilling (see DESIGN.md §5i). Unlike the join, the aggregate
// never defers input: on a budget breach every group is dumped to one
// append-only run as a partial-aggregate record and the in-memory table
// restarts empty. Aggregation is commutative and associative, so the freeze
// simply reloads the run and re-merges each record into the table; what that
// merge materialises is the distinct result groups, i.e. the same memory the
// emit buffer needs regardless of spilling. The budget therefore governs the
// absorb phase — where raw-input skew, not result size, drives the
// footprint.
//
// R1 correctness uses a per-bucket record watermark: an eviction of bucket b
// records the run length at eviction time, and the reload drops the bucket's
// records below it. Groups absorbed from replayed history afterwards are
// dumped beyond the watermark and survive, mirroring the in-memory
// delete-then-replay exactly.

// groupBytes is the accounted in-memory footprint of one group.
func groupBytes(key relation.Tuple, nAccs int) int64 {
	return int64(key.ByteSize()) + 48*int64(nAccs+1)
}

// reserve reserves the groupBytes of freshly created groups against the
// budget, once per batch.
func (s *aggState) reserve(grown int64) {
	if grown == 0 {
		return
	}
	s.mem.Reserve(grown)
	s.bytes += grown
}

// dump writes every group to the spill run and restarts the in-memory table
// empty, chunks and all, releasing exactly the bytes of the groups it drops:
// those it wrote, and those an eviction unlinked but left in a chunk.
func (s *aggState) dump(a *HashAggregate) error {
	if s.run == nil {
		s.runName = s.base + "-groups"
		w, err := s.backend.Create(s.runName)
		if err != nil {
			return fmt.Errorf("engine: agg spill create: %w", err)
		}
		s.run = w
		s.spillLive = make(map[int32]int64)
	}
	var dumped, released int64
	nk, na := len(a.GroupOrds), len(a.Kinds)
	if w := 1 + nk + 4*na; len(s.rec) != w {
		s.rec = make(relation.Tuple, w)
	}
	for i := range s.table {
		p := &s.table[i]
		for g := int32(0); g < p.n; g++ {
			row, _ := p.slot(g, nk+na, na)
			released += groupBytes(row[:nk], na)
		}
		for h, c := range p.chains {
			b := int32(h % uint64(s.buckets))
			for g, i := c.head, c.n; i > 0; g, i = p.next[g], i-1 {
				row, accs := p.slot(g, nk+na, na)
				encodeGroupRec(s.rec, b, row, accs)
				if err := s.run.Append(s.rec); err != nil {
					return fmt.Errorf("engine: agg spill append: %w", err)
				}
				s.recCount++
				s.spillLive[b]++
				dumped++
			}
		}
		*p = aggPart{}
	}
	s.bytes -= released
	s.mem.Release(released)
	s.met.bytes.Add(released)
	s.met.parts.Inc()
	recordSpillEvent(s.ctx, fmt.Sprintf("agg dump -> %s", s.runName), dumped)
	return nil
}

// encodeGroupRec flattens one unfrozen group — its row, whose output slots
// hold the MIN/MAX running values and Null elsewhere, and its accumulators —
// into the run record rec:
// [Int(bucket), key..., per aggregate: Int(count), Float(sum), slot, Int(seen)].
func encodeGroupRec(rec relation.Tuple, b int32, row relation.Tuple, accs []accumulator) {
	rec[0] = relation.Int(int64(b))
	nk := len(row) - len(accs)
	n := 1 + copy(rec[1:], row[:nk])
	for i, acc := range accs {
		seen := int64(0)
		if !row[nk+i].IsNull() {
			seen = 1
		}
		rec[n], rec[n+1], rec[n+2], rec[n+3] = relation.Int(acc.count), relation.Float(acc.sum), row[nk+i], relation.Int(seen)
		n += 4
	}
}

// decodeGroupRec inverts encodeGroupRec into the caller's row and accs.
func decodeGroupRec(rec, row relation.Tuple, accs []accumulator) (b int32, err error) {
	nk := len(row) - len(accs)
	if len(rec) != 1+nk+4*len(accs) || rec[0].Type() != relation.TInt || rec[0].AsInt() < 0 {
		return 0, fmt.Errorf("engine: malformed agg spill record")
	}
	copy(row, rec[1:1+nk])
	for i := range accs {
		f := rec[1+nk+4*i:]
		if f[0].Type() != relation.TInt || f[1].Type() != relation.TFloat || f[3].Type() != relation.TInt ||
			f[2].IsNull() != (f[3].AsInt() == 0) {
			return 0, fmt.Errorf("engine: malformed agg spill record")
		}
		accs[i] = accumulator{count: f[0].AsInt(), sum: f[1].AsFloat()}
		row[nk+i] = f[2]
	}
	return int32(rec[0].AsInt()), nil
}

// reload re-merges the dumped records into the table at the freeze.
func (s *aggState) reload(a *HashAggregate) error {
	if err := s.run.Close(); err != nil {
		return fmt.Errorf("engine: agg spill seal: %w", err)
	}
	s.run = nil
	r, err := openScratchRun(s.backend, s.runName, &s.scratch) // decodeGroupRec copies what it keeps
	if err != nil {
		return fmt.Errorf("engine: agg spill reload: %w", err)
	}
	defer r.close()
	nk, na := len(s.keyOrds), len(a.Kinds)
	row, accs := make(relation.Tuple, nk+na), make([]accumulator, na)
	var grown int64
	defer func() { s.reserve(grown) }()
	for idx := int64(0); ; idx++ {
		rec, ok, rerr := r.nextTuple()
		if rerr != nil {
			return rerr
		}
		if !ok {
			break
		}
		b, derr := decodeGroupRec(rec, row, accs)
		if derr != nil {
			return derr
		}
		if idx < s.evictedAt[b] {
			continue // appended before its bucket's eviction watermark
		}
		if mergeGroup(s.table.part(b), row[:nk].Hash(s.keyOrds), row, accs, s.keyOrds, a.Kinds) && s.spillOn {
			grown += groupBytes(row[:nk], na)
		}
	}
	_ = s.backend.Remove(s.runName)
	s.runName = ""
	s.spillLive = nil
	return nil
}

// External merge sort (see DESIGN.md §5i, §5j). Sort runs in the serial
// collector fragment and shares the query's budget with the joins and
// aggregates upstream: under a budget the buffer is accounted per batch
// and, on breach, sorted and flushed as one run. The emit phase merges
// the sealed runs with the sorted in-memory tail; ties resolve to the
// earlier source (runs in flush order, the tail last), which reproduces
// a stable sort of the full input byte for byte.

// sortShedShare bounds how far the sort can push the query past its budget:
// it flushes a run once the budget is breached and its own buffer holds at
// least 1/sortShedShare of the limit.
const sortShedShare = 8

// sortTupleBytes is the accounted footprint of one buffered sort tuple.
func sortTupleBytes(t relation.Tuple) int64 {
	return int64(t.ByteSize()) + 24
}

// flushRun sorts and spills the current buffer as one sealed run.
func (s *Sort) flushRun() error {
	if len(s.sorted) == 0 {
		return nil
	}
	if s.base == "" {
		s.base = s.ctx.spillRunName("sort")
		s.met = newSpillMetrics()
	}
	name := fmt.Sprintf("%s-r%d", s.base, len(s.runs))
	w, err := s.ctx.Spill.Create(name)
	if err != nil {
		return fmt.Errorf("engine: sort spill create: %w", err)
	}
	sortBuffer(s)
	if err := w.AppendAll(s.sorted); err != nil {
		_ = w.Close()
		return fmt.Errorf("engine: sort spill append: %w", err)
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("engine: sort spill seal: %w", err)
	}
	s.runs = append(s.runs, name)
	s.ctx.Mem.Release(s.bufBytes)
	s.met.bytes.Add(s.bufBytes)
	s.bufBytes = 0
	s.met.parts.Inc()
	recordSpillEvent(s.ctx, fmt.Sprintf("sort run %s", name), int64(len(s.sorted)))
	s.sorted = s.sorted[:0]
	return nil
}

// sortSource is one merge input: a sealed run or the in-memory tail.
type sortSource struct {
	reader *blockScan // nil for the in-memory tail
	buf    []relation.Tuple
	pos    int
	head   relation.Tuple
	ok     bool
}

func (src *sortSource) advance() error {
	if src.reader != nil {
		t, ok, err := src.reader.nextTuple()
		if err != nil {
			return err
		}
		src.head, src.ok = t, ok
		return nil
	}
	if src.pos < len(src.buf) {
		src.head, src.ok = src.buf[src.pos], true
		src.pos++
	} else {
		src.head, src.ok = nil, false
	}
	return nil
}

// startMerge seals the drain phase: the tail buffer is sorted and every
// source is positioned on its first tuple.
func (s *Sort) startMerge() error {
	sortBuffer(s)
	for _, name := range s.runs {
		r, err := openRun(s.ctx.Spill, name)
		if err != nil {
			return fmt.Errorf("engine: sort spill reload: %w", err)
		}
		s.merge = append(s.merge, &sortSource{reader: r})
	}
	s.merge = append(s.merge, &sortSource{buf: s.sorted})
	for _, src := range s.merge {
		if err := src.advance(); err != nil {
			return err
		}
	}
	return nil
}

// mergeNext pops the smallest head across sources (ties to the earliest
// source, preserving stability).
func (s *Sort) mergeNext() (relation.Tuple, bool, error) {
	best := -1
	for i, src := range s.merge {
		if !src.ok {
			continue
		}
		if best < 0 || s.compare(src.head, s.merge[best].head) < 0 {
			best = i
		}
	}
	if best < 0 {
		return nil, false, nil
	}
	t := s.merge[best].head
	if err := s.merge[best].advance(); err != nil {
		return nil, false, err
	}
	return t, true, nil
}

// closeSpill releases every external-sort resource.
func (s *Sort) closeSpill() {
	for _, src := range s.merge {
		if src.reader != nil {
			_ = src.reader.close()
		}
	}
	s.merge = nil
	for _, name := range s.runs {
		_ = s.ctx.Spill.Remove(name)
	}
	s.runs = nil
	s.ctx.Mem.Release(s.bufBytes)
	s.bufBytes = 0
}

// sortBuffer stable-sorts the in-memory buffer by the sort keys.
func sortBuffer(s *Sort) {
	slices.SortStableFunc(s.sorted, s.compare)
}

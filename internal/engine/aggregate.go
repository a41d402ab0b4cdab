package engine

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/logical"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/vtime"
)

// HashAggregate groups its input by key columns and computes aggregates per
// group. It is the engine's second stateful operator and lays its state out
// the way the hash join does (hashjoin.go): per routing-bucket partition,
// groups sit inline in chunks that are never copied, chained from one
// hash-keyed map, so absorbing a tuple is one map probe and a new group is no
// heap object of its own; each group's row is the row it is emitted as. It
// implements StateTarget: R1 evicts a bucket by scanning its
// partition's chains, and the moved groups' raw input tuples are replayed
// from the exchange recovery logs and re-absorbed at the new owner. Absorb,
// replay, evict, dump and freeze all work on the one table.
type HashAggregate struct {
	Child     Iterator
	GroupOrds []int
	// Kinds and ArgOrds describe the aggregate columns (ArgOrd -1 for
	// COUNT(*)).
	Kinds   []logical.AggKind
	ArgOrds []int

	ctx *ExecContext
	st  aggState

	// emitting flips once the input is drained and the output frozen; pos
	// is the emit cursor into st.out.
	emitting bool
	pos      int

	// in is the owned input batch for the vectorized absorb phase.
	in *relation.Batch
}

// aggPart is one partition (routing bucket % joinPartitions) of a group
// table. Its groups live in chunks that are allocated once and never copied:
// chunk k holds aggChunk0<<k groups (chunkOf). Group g's row — its key, then
// one output slot per aggregate — is the row it is emitted as, and its
// accumulators sit beside it in the same chunk (slot). Chunk 0 alone is
// allocated twice — for one group, then whole once a second arrives — so a
// partition of one group, as each of a three-group aggregate's is, pays for
// one. Chains are per 64-bit hash, so next, the link to a chain's
// following group, exists only where two groups' hashes collide. An evicted
// chain leaves its groups in the chunks, unreachable, until the table goes —
// evictions are rare, as in the join.
type aggPart struct {
	chains map[uint64]chainRef // hash → chain (bucket derivable from hash)
	next   map[int32]int32     // group → the next group on its chain
	chunks []aggChunk
	n      int32 // groups allocated
	live   int32 // groups reachable from chains
}

// aggChunk holds consecutive groups of a partition: rows with stride
// nKeys+nAggs, and nAggs accumulators per group.
type aggChunk struct {
	rows []relation.Value
	accs []accumulator
}

// aggChunk0 is the number of groups in a partition's first chunk.
const aggChunk0 = 8

// chunkOf locates group g: chunk k starts at group aggChunk0*(1<<k - 1).
func chunkOf(g int32) (k, off int) {
	k = bits.Len32(uint32(g)/aggChunk0+1) - 1
	return k, int(g) + aggChunk0 - aggChunk0<<k
}

// aggTable is the joinPartitions partitions of one group table; nil once it
// has been frozen or released.
type aggTable []aggPart

func (t aggTable) part(b int32) *aggPart { return &t[int(b)%joinPartitions] }

func (t aggTable) live() int {
	n := 0
	for i := range t {
		n += int(t[i].live)
	}
	return n
}

// slot returns group g's row (capacity-capped: rows are emitted by
// reference) and its accumulators.
func (p *aggPart) slot(g int32, stride, nAccs int) (relation.Tuple, []accumulator) {
	k, off := chunkOf(g)
	c := &p.chunks[k]
	return c.rows[off*stride : (off+1)*stride : (off+1)*stride], c.accs[off*nAccs : (off+1)*nAccs]
}

// keyIs reports whether row's key is t's values at ords.
func keyIs(row, t relation.Tuple, ords []int) bool {
	for j, ord := range ords {
		if !row[j].Equal(t[ord]) {
			return false
		}
	}
	return true
}

// group returns the row and accumulators of the group whose key is t's
// values at ords, adding the group to the partition when it does not hold
// it yet.
func (p *aggPart) group(h uint64, t relation.Tuple, ords []int, nAccs int) (row relation.Tuple, accs []accumulator, created bool) {
	stride := len(ords) + nAccs
	c, ok := p.chains[h]
	if ok {
		for g, i := c.head, c.n; ; g = p.next[g] {
			if row, accs = p.slot(g, stride, nAccs); keyIs(row, t, ords) {
				return row, accs, false
			}
			if i--; i == 0 {
				break // a 64-bit hash collision: a new group joins the chain
			}
		}
		if p.next == nil {
			p.next = make(map[int32]int32)
		}
		p.next[p.n] = c.head // chain order is immaterial: push front
	}
	g := p.n
	k, _ := chunkOf(g)
	if k == len(p.chunks) {
		p.chunks = append(p.chunks, aggChunk{})
		if k > 0 {
			size := aggChunk0 << k
			p.chunks[k] = aggChunk{rows: make([]relation.Value, size*stride), accs: make([]accumulator, size*nAccs)}
		}
	}
	if k == 0 {
		c0 := &p.chunks[0]
		if g == 1 { // a second group: chunk 0 takes its full size
			c0.rows = slices.Grow(c0.rows, (aggChunk0-1)*stride)
			c0.accs = slices.Grow(c0.accs, (aggChunk0-1)*nAccs)
		}
		c0.rows = append(c0.rows, make([]relation.Value, stride)...)
		c0.accs = append(c0.accs, make([]accumulator, nAccs)...)
	}
	row, accs = p.slot(g, stride, nAccs)
	for j, ord := range ords {
		row[j] = t[ord]
	}
	if p.chains == nil {
		p.chains = make(map[uint64]chainRef)
	}
	p.chains[h] = chainRef{head: g, n: c.n + 1}
	p.n++
	p.live++
	return row, accs, true
}

// aggState is a HashAggregate's group table, owned like the rest of the
// aggregate by the fragment's driver goroutine. out is the frozen emit
// output.
type aggState struct {
	ctx     *ExecContext // the driver's context
	buckets int
	keyOrds []int // 0..nKeys-1: a stored key's ordinals, for group()

	// insertMeter charges replay inserts. It is the driver's, as ctx.Meter
	// is, but no M1 window reads it.
	insertMeter *vtime.Meter
	mon         opMonitor

	table aggTable
	out   []relation.Tuple

	// Spill wiring (aggregates under a memory budget; see spillagg.go). On
	// breach every group is dumped as a partial-aggregate record to one
	// append-only run and the table restarts empty; the freeze reloads and
	// re-merges the run.
	spillEnv
	bytes     int64 // accounted in-memory group footprint
	run       storage.RunWriter
	runName   string
	recCount  int64           // records appended to the run
	evictedAt map[int32]int64 // bucket → record watermark at eviction
	spillLive map[int32]int64 // live (unevicted) dumped records per bucket
}

func (s *aggState) init(ctx *ExecContext, nKeys int) {
	s.ctx = ctx
	s.buckets = ctx.Buckets
	if s.buckets <= 0 {
		s.buckets = DefaultBuckets
	}
	s.keyOrds = make([]int, nKeys)
	for i := range s.keyOrds {
		s.keyOrds[i] = i
	}
	s.table = make(aggTable, joinPartitions)
	s.insertMeter = vtime.NewMeter(ctx.Clock)
	s.mon = opMonitor{ctx: ctx}
	s.spillEnv = newSpillEnv(ctx, "agg")
}

func (s *aggState) release() {
	if s.run != nil {
		_ = s.run.Close()
		s.run = nil
	}
	if s.runName != "" {
		_ = s.backend.Remove(s.runName)
		s.runName = ""
	}
	s.mem.Release(s.bytes)
	s.bytes = 0
	s.table = nil
	s.out = nil
	s.spillLive = nil
}

// accumulator folds one COUNT, SUM or AVG column. It holds no pointer, so
// the collector never scans a chunk of them. A MIN or MAX keeps its running
// value in the group's output slot instead, Null until it has seen one.
type accumulator struct {
	count int64
	sum   float64
}

// merge folds a partial aggregate of the same group and kind into acc and
// the group's output slot: other and, for MIN/MAX, v, the partial's running
// value (Null when it has seen none).
func (acc *accumulator) merge(kind logical.AggKind, slot *relation.Value, other accumulator, v relation.Value) {
	switch kind {
	case logical.AggCount, logical.AggSum, logical.AggAvg:
		acc.count += other.count
		acc.sum += other.sum
	case logical.AggMin:
		if !v.IsNull() && (slot.IsNull() || v.Compare(*slot) < 0) {
			*slot = v
		}
	case logical.AggMax:
		if !v.IsNull() && (slot.IsNull() || v.Compare(*slot) > 0) {
			*slot = v
		}
	}
}

// mergeGroup folds one partial group — its row, whose slots hold MIN/MAX
// running values, and its accumulators — into partition p, and reports
// whether the group was new there.
func mergeGroup(p *aggPart, h uint64, row relation.Tuple, accs []accumulator, keyOrds []int, kinds []logical.AggKind) (created bool) {
	nk := len(keyOrds)
	drow, daccs, created := p.group(h, row, keyOrds, len(kinds))
	for i, kind := range kinds {
		daccs[i].merge(kind, &drow[nk+i], accs[i], row[nk+i])
	}
	return created
}

// Open implements Iterator. Unlike the join's build phase, absorption
// happens lazily in NextBatch so that it interleaves with control
// operations.
func (a *HashAggregate) Open(ctx *ExecContext) error {
	a.ctx = ctx
	a.st.init(ctx, len(a.GroupOrds))
	a.in = relation.GetBatch()
	return a.Child.Open(ctx)
}

// absorb folds input tuples into the table and, when the groups it created
// breach the budget, dumps the table.
func (a *HashAggregate) absorb(ts []relation.Tuple) error {
	s := &a.st
	s.absorbAll(ts, a)
	if s.spillOn && s.mem.Over() {
		return s.dump(a)
	}
	return nil
}

// drain absorbs the child batch-at-a-time (clamped to the M1 window so
// absorb-phase monitoring cadence is unchanged), then freezes the output.
func (a *HashAggregate) drain() error {
	s := &a.st
	a.in.SetLimit(batchLimit(a.ctx, relation.DefaultBatchSize))
	prev := a.ctx.Meter.ChargedMs()
	for {
		n, err := a.Child.NextBatch(a.in)
		if err != nil {
			return err
		}
		if n == 0 {
			return s.freeze(a)
		}
		a.ctx.chargeN(a.ctx.Costs.AggMs, n)
		if err := a.absorb(a.in.Tuples); err != nil {
			return err
		}
		cur := a.ctx.Meter.ChargedMs()
		s.mon.tickN(n, cur-prev)
		prev = cur
	}
}

// NextBatch implements Iterator: the first call drains the child, absorbing
// whole input batches into group state with one charge bundle per batch; the
// emit phase hands out one row per group by reference.
func (a *HashAggregate) NextBatch(dst *relation.Batch) (int, error) {
	if !a.emitting {
		if err := a.drain(); err != nil {
			return 0, err
		}
		a.emitting = true
	}
	n := emitSorted(dst, a.st.out, &a.pos)
	a.ctx.chargeFlat(a.ctx.Costs.ProjectMs * float64(n))
	return n, nil
}

// absorbAll folds input tuples into their groups and reserves the groups
// it created, once per batch; a carries the column metadata.
func (s *aggState) absorbAll(ts []relation.Tuple, a *HashAggregate) {
	var grown int64
	for _, t := range ts {
		grown += s.absorbTuple(t, a)
	}
	s.reserve(grown)
}

// absorbTuple folds one input tuple into its group and returns the
// accounted bytes of a group it created.
func (s *aggState) absorbTuple(t relation.Tuple, a *HashAggregate) (grown int64) {
	nk := len(a.GroupOrds)
	h := t.Hash(a.GroupOrds)
	p := s.table.part(int32(h % uint64(s.buckets)))
	row, accs, created := p.group(h, t, a.GroupOrds, len(a.Kinds))
	if created && s.spillOn {
		grown = groupBytes(row[:nk], len(a.Kinds))
	}
	for i, kind := range a.Kinds {
		one := accumulator{count: 1} // the tuple as a one-row partial aggregate
		var v relation.Value
		if ord := a.ArgOrds[i]; ord >= 0 {
			if v = t[ord]; v.IsNull() {
				continue // SQL aggregates skip NULLs
			}
			if kind == logical.AggSum || kind == logical.AggAvg {
				one.sum = v.AsFloat()
			}
		}
		accs[i].merge(kind, &row[nk+i], one, v)
	}
	return grown
}

// freeze re-merges any dumped records into the table and freezes the emit
// output.
func (s *aggState) freeze(a *HashAggregate) error {
	if s.runName != "" {
		// Dumped partial-aggregate records re-merge into the in-memory
		// table; the distinct result groups this materialises are exactly
		// what the emit buffer holds anyway (see spillagg.go).
		if err := s.reload(a); err != nil {
			return err
		}
	}
	s.freezeTable(a)
	return nil
}

// keyClass maps both numeric types to one class, so that classes order NULL <
// numbers < strings and values are only ever compared within a class.
func keyClass(v relation.Value) relation.Type {
	if v.Type() == relation.TFloat {
		return relation.TInt
	}
	return v.Type()
}

// compareKeys is the emit order: ascending by value, column by column, total
// over any mix of NULLs, numbers and strings (Value.Compare panics on a
// string beside a number and calls every NaN equal).
func compareKeys(x, y relation.Tuple) int {
	for i := range x {
		cx, cy := keyClass(x[i]), keyClass(y[i])
		c := cmp.Compare(cx, cy)
		switch {
		case c != 0 || cx == 0:
		case cx == relation.TString:
			c = strings.Compare(x[i].AsString(), y[i].AsString())
		case x[i].Type() == relation.TInt && y[i].Type() == relation.TInt:
			c = cmp.Compare(x[i].AsInt(), y[i].AsInt())
		default:
			c = cmp.Compare(x[i].AsFloat(), y[i].AsFloat())
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// freezeTable turns the table into output rows, ascending by group
// key for deterministic per-instance output. Each group's results are
// written into its own row, which is emitted where it lies; the rows keep
// their chunks alive, and the table goes.
func (s *aggState) freezeTable(a *HashAggregate) {
	nk, na := len(a.GroupOrds), len(a.Kinds)
	if nk == 0 && s.table.live() == 0 {
		// A global aggregate emits exactly one row even over empty input.
		s.table[0].group(0, nil, nil, na)
	}
	s.out = make([]relation.Tuple, 0, s.table.live())
	for pi := range s.table {
		p := &s.table[pi]
		for _, c := range p.chains {
			for g, i := c.head, c.n; i > 0; g, i = p.next[g], i-1 {
				row, accs := p.slot(g, nk+na, na)
				for j, kind := range a.Kinds {
					row[nk+j] = accs[j].result(kind, row[nk+j])
				}
				s.out = append(s.out, row)
			}
		}
	}
	slices.SortFunc(s.out, func(x, y relation.Tuple) int { return compareKeys(x[:nk], y[:nk]) })
	s.table = nil
}

// result finalises one accumulator; slot is the group's output slot, which
// holds a MIN or MAX as it stands.
func (acc *accumulator) result(kind logical.AggKind, slot relation.Value) relation.Value {
	switch kind {
	case logical.AggCount:
		return relation.Int(acc.count)
	case logical.AggSum:
		if acc.count == 0 {
			return relation.Null
		}
		return relation.Float(acc.sum)
	case logical.AggAvg:
		if acc.count == 0 {
			return relation.Null
		}
		return relation.Float(acc.sum / float64(acc.count))
	case logical.AggMin, logical.AggMax:
		return slot
	default:
		return relation.Null
	}
}

// Close implements Iterator: it releases the table, the frozen output, the
// spill run and the reserved bytes.
func (a *HashAggregate) Close() error {
	err := a.Child.Close()
	a.st.release()
	if a.in != nil {
		a.in.Release()
		a.in = nil
	}
	return err
}

// InsertState implements StateTarget: replayed raw input tuples are
// re-absorbed into the table at the absorb cost, on the insert meter. A
// replay that finds no table — the aggregate has frozen its output or
// closed — cannot be absorbed and StateTarget cannot refuse it (ROADMAP
// item 1); every tuple lost that way is counted.
func (a *HashAggregate) InsertState(tuples []relation.Tuple) {
	s := &a.st
	if s.table == nil {
		obs.Default().Counter(obs.MAggReplayDropped).Add(int64(len(tuples)))
		return
	}
	s.insertMeter.Charge(a.ctx.Node.PerturbedCostN(a.ctx.Costs.AggMs, len(tuples)))
	s.absorbAll(tuples, a)
}

// EvictBuckets implements StateTarget: the bucket's groups vanish from the
// table, and its dumped records die at the current watermark.
func (a *HashAggregate) EvictBuckets(buckets []int32) {
	s := &a.st
	s.table.evict(buckets, s.buckets)
	if s.runName != "" {
		// Groups replayed afterwards are dumped beyond the watermark and
		// survive the reload.
		if s.evictedAt == nil {
			s.evictedAt = make(map[int32]int64)
		}
		for _, b := range buckets {
			s.evictedAt[b] = s.recCount
			delete(s.spillLive, b)
		}
	}
}

// evict unlinks the buckets' chains; a nil table holds nothing to evict.
func (t aggTable) evict(buckets []int32, nBuckets int) {
	if t == nil {
		return
	}
	for _, b := range buckets {
		p := t.part(b)
		p.live -= int32(unlinkBucket(p.chains, b, nBuckets))
	}
}

// StateSize reports the groups held in the table or, once frozen, as output
// rows.
func (a *HashAggregate) StateSize() int {
	s := &a.st
	n := s.table.live() + len(s.out)
	// Dumped records count as held state (an upper bound: a group dumped
	// twice counts twice until the reload re-merges it).
	for _, c := range s.spillLive {
		n += int(c)
	}
	return n
}

// Sort buffers its input, sorts it by the key ordinals, and emits in order.
// It runs at the result-collection site. Under a memory budget the buffer is
// accounted and, on breach, flushed as a sorted external run; the emit phase
// then k-way-merges the runs with the in-memory tail (see spillagg.go),
// byte-for-byte equivalent to the in-memory stable sort.
type Sort struct {
	Child Iterator
	Ords  []int
	Desc  []bool

	ctx    *ExecContext
	in     *relation.Batch // input batch, owned by the operator
	sorted []relation.Tuple
	pos    int
	done   bool

	// External-sort state (see spillagg.go).
	base     string
	met      spillMetrics
	runs     []string
	bufBytes int64
	merge    []*sortSource
}

// Open implements Iterator.
func (s *Sort) Open(ctx *ExecContext) error {
	s.ctx = ctx
	recordUngoverned(ctx, "sort")
	s.in = relation.GetBatch()
	return s.Child.Open(ctx)
}

// drain buffers the whole input, shedding sorted runs under budget pressure,
// and leaves the operator ready to emit: a sorted buffer, or a primed merge.
func (s *Sort) drain() error {
	spill := s.ctx.spillEnabled()
	for {
		n, err := s.Child.NextBatch(s.in)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		s.ctx.chargeFlat(s.ctx.Costs.SortMs * float64(n))
		s.sorted = relation.AppendDoubling(s.sorted, s.in.Tuples...)
		if !spill {
			continue
		}
		var sz int64
		for _, t := range s.in.Tuples {
			sz += sortTupleBytes(t)
		}
		s.bufBytes += sz
		s.ctx.Mem.Reserve(sz)
		// Over is query-global: shed only when this buffer is a real share
		// of the budget, or an over-budget neighbour (a frozen aggregate
		// upstream) makes every batch a run.
		if s.ctx.Mem.Over() && s.bufBytes >= s.ctx.Mem.Limit()/sortShedShare {
			if err := s.flushRun(); err != nil {
				return err
			}
		}
	}
	if len(s.runs) > 0 {
		return s.startMerge()
	}
	sortBuffer(s)
	return nil
}

// NextBatch implements Iterator: the first call consumes the whole input.
func (s *Sort) NextBatch(dst *relation.Batch) (int, error) {
	if !s.done {
		if err := s.drain(); err != nil {
			return 0, err
		}
		s.done = true
	}
	if s.merge == nil {
		return emitSorted(dst, s.sorted, &s.pos), nil
	}
	dst.Rewind()
	for !dst.Full() {
		t, ok, err := s.mergeNext()
		if err != nil {
			return dst.Len(), err
		}
		if !ok {
			break
		}
		dst.Append(t)
	}
	return dst.Len(), nil
}

// emitSorted refills dst with the next dst.Cap() tuples of a fully ordered
// result and advances *pos past them — Sort's in-memory emit phase.
func emitSorted(dst *relation.Batch, sorted []relation.Tuple, pos *int) int {
	dst.Rewind()
	n := min(len(sorted)-*pos, dst.Cap())
	dst.AppendAll(sorted[*pos : *pos+n])
	*pos += n
	return n
}

// compare orders two tuples by the sort keys.
func (s *Sort) compare(a, b relation.Tuple) int {
	for i, ord := range s.Ords {
		c := a[ord].Compare(b[ord])
		if s.Desc[i] {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// Close implements Iterator.
func (s *Sort) Close() error {
	if s.ctx != nil && (len(s.runs) > 0 || s.merge != nil || s.bufBytes > 0) {
		s.closeSpill()
	}
	s.sorted = nil
	if s.in != nil {
		s.in.Release()
		s.in = nil
	}
	return s.Child.Close()
}

// Limit forwards the first N tuples and then reports end of stream without
// draining the rest of its input.
type Limit struct {
	Child Iterator
	N     int64

	seen int64
}

// Open implements Iterator.
func (l *Limit) Open(ctx *ExecContext) error { return l.Child.Open(ctx) }

// NextBatch implements Iterator: dst is clamped to the rows still wanted for
// the duration of the child's fill, so the child is never asked for a tuple
// past N.
func (l *Limit) NextBatch(dst *relation.Batch) (int, error) {
	left := l.N - l.seen
	if left <= 0 {
		dst.Rewind()
		return 0, nil
	}
	width := dst.Cap()
	if left < int64(width) {
		dst.SetLimit(int(left))
		defer dst.SetLimit(width)
	}
	n, err := l.Child.NextBatch(dst)
	l.seen += int64(n)
	return n, err
}

// Close implements Iterator.
func (l *Limit) Close() error { return l.Child.Close() }

// aggKindsOf converts the wire representation back to logical kinds.
func aggKindsOf(raw []uint8) ([]logical.AggKind, error) {
	kinds := make([]logical.AggKind, len(raw))
	for i, r := range raw {
		k := logical.AggKind(r)
		if k < logical.AggCount || k > logical.AggMax {
			return nil, fmt.Errorf("engine: invalid aggregate kind %d", r)
		}
		kinds[i] = k
	}
	return kinds, nil
}

package engine

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/logical"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/storage"
)

// HashAggregate groups its input by key columns and computes aggregates per
// group. It is the engine's second stateful operator and lays its state out
// the way the hash join does (hashjoin.go): per routing-bucket partition,
// groups sit inline in chunks that are never copied, chained from one
// hash-keyed map, so absorbing a tuple is one map probe and a new group is no
// heap object of its own; each group's row is the row it is emitted as. It
// implements StateTarget: R1 evicts a bucket by scanning its
// partition's chains, and the moved groups' raw input tuples are replayed
// from the exchange recovery logs and re-absorbed at the new owner.
//
// Every worker clone absorbs into a private table — aggregation is
// commutative, so no lock contends on the hot path — while replays land in
// the final table. At the absorb barrier a worker's partition moves into the
// final table whole where the final table holds nothing, and is folded group
// by group where it does (a replay landed there, or a sibling got there
// first), so a group is found, allocated and reserved against the budget
// once. Evictions sweep every table: a bucket moved mid-absorb loses its
// partial contributions exactly as the replayed history recreates them.
type HashAggregate struct {
	Child     Iterator
	GroupOrds []int
	// Kinds and ArgOrds describe the aggregate columns (ArgOrd -1 for
	// COUNT(*)).
	Kinds   []logical.AggKind
	ArgOrds []int

	ctx    *ExecContext
	shared *aggState
	// part is this clone's private absorb table.
	part *aggPartial

	// emitting flips once this clone has drained and the merged output is
	// frozen; the emit cursor itself lives in the shared state.
	emitting bool

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
// has been merged away, frozen or released.
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

// aggPartial is one worker's lock-private table. Its mutex is uncontended on
// the absorb path; only R1 evictions, dumps and the final merge touch it
// from outside.
type aggPartial struct {
	mu    sync.Mutex
	table aggTable
}

// aggState is shared by every worker clone of one HashAggregate. final holds
// replayed groups during the absorb phase and every group after the merge;
// out/pos are the frozen emit output and shared cursor.
type aggState struct {
	initOnce sync.Once
	ready    atomic.Bool
	ctx      *ExecContext // first opener's context; shared fields only
	buckets  int
	keyOrds  []int // 0..nKeys-1: a stored key's ordinals, for group()

	insertMeter *opInsertMeter
	mon         *opMonitor
	barrier     buildBarrier
	mergeOnce   sync.Once
	refs        atomic.Int32

	mu       sync.Mutex
	final    aggTable
	partials []*aggPartial
	out      []relation.Tuple
	pos      int

	// Spill wiring (aggregates under a memory budget, serial or
	// morsel-parallel; see spillagg.go). On breach every group — final and
	// partial — is dumped as a partial-aggregate record to one append-only
	// run and the tables restart empty; the final merge reloads and
	// re-merges the run. Workers account group creation against the shared
	// budget; the dump itself serializes under mu.
	spillEnv
	// bytes is the accounted in-memory group footprint. Atomic because
	// groups are created under either s.mu (replays, reload) or a partial's
	// mu (absorb), never both.
	bytes atomic.Int64

	// Guarded by mu: the dump run and its R1 bookkeeping.
	run       storage.RunWriter
	runName   string
	recCount  int64           // records appended to the run
	evictedAt map[int32]int64 // bucket → record watermark at eviction
	spillLive map[int32]int64 // live (unevicted) dumped records per bucket
	mergeErr  error           // reload failure, surfaced by drain
}

func newAggState() *aggState {
	s := &aggState{}
	s.refs.Store(1)
	s.barrier.reset(1)
	return s
}

func (s *aggState) init(ctx *ExecContext, nKeys int) {
	s.initOnce.Do(func() {
		s.ctx = ctx
		s.buckets = ctx.Buckets
		if s.buckets <= 0 {
			s.buckets = DefaultBuckets
		}
		s.keyOrds = make([]int, nKeys)
		for i := range s.keyOrds {
			s.keyOrds[i] = i
		}
		s.final = make(aggTable, joinPartitions)
		s.insertMeter = newOpInsertMeter(ctx)
		s.mon = newOpMonitor(ctx)
		s.spillEnv = newSpillEnv(ctx, "agg")
		s.ready.Store(true)
	})
}

func (s *aggState) release() {
	if s.refs.Add(-1) != 0 {
		return
	}
	s.mu.Lock()
	if s.run != nil {
		_ = s.run.Close()
		s.run = nil
	}
	if s.runName != "" {
		_ = s.backend.Remove(s.runName)
		s.runName = ""
	}
	s.mem.Release(s.bytes.Swap(0))
	s.final = nil
	s.out = nil
	s.mu.Unlock()
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

// ensureShared lazily creates the shared state. Not safe for concurrent
// callers: it runs during plan compilation / worker-chain construction,
// strictly before workers start.
func (a *HashAggregate) ensureShared() *aggState {
	if a.shared == nil {
		a.shared = newAggState()
	}
	return a.shared
}

// WorkerClone returns an aggregate over the given per-worker input that
// shares this aggregate's merged state, barrier, and monitoring state.
func (a *HashAggregate) WorkerClone(child Iterator) *HashAggregate {
	return &HashAggregate{
		Child:     child,
		GroupOrds: a.GroupOrds, Kinds: a.Kinds, ArgOrds: a.ArgOrds,
		shared: a.ensureShared(),
	}
}

// SetWorkers declares how many clones will Open and Close this aggregate's
// shared state. Call before any worker starts; the default is 1.
func (a *HashAggregate) SetWorkers(n int) {
	s := a.ensureShared()
	s.refs.Store(int32(n))
	s.barrier.reset(n)
}

// Abort releases sibling workers blocked at the absorb barrier; the worker
// pool calls it when a worker fails before reaching this aggregate.
func (a *HashAggregate) Abort() {
	if a.shared != nil {
		a.shared.barrier.cancel()
	}
}

// Open implements Iterator. Unlike the join's build phase, absorption
// happens lazily in Next so that it interleaves with control operations.
func (a *HashAggregate) Open(ctx *ExecContext) error {
	a.ctx = ctx
	s := a.ensureShared()
	s.init(ctx, len(a.GroupOrds))
	a.part = &aggPartial{table: make(aggTable, joinPartitions)}
	s.mu.Lock()
	s.partials = append(s.partials, a.part)
	s.mu.Unlock()
	a.in = relation.GetBatch()
	return a.Child.Open(ctx)
}

// drain absorbs this clone's share of the child input, waits for every
// sibling worker, then (once, in whichever worker gets there first) merges
// the partials and freezes the emit-phase output.
func (a *HashAggregate) drain() error {
	s := a.shared
	if err := a.drainChild(); err != nil {
		return err
	}
	if err := s.barrier.wait(); err != nil {
		return err
	}
	s.mergeOnce.Do(func() { s.mergeAndFreeze(a) })
	s.mu.Lock()
	mergeErr := s.mergeErr
	s.mu.Unlock()
	if mergeErr != nil {
		return mergeErr
	}
	a.emitting = true
	return nil
}

// absorb folds input tuples into this clone's private table. Tests call it
// directly to script mid-absorb evict/replay interleavings.
func (a *HashAggregate) absorb(ts []relation.Tuple) {
	a.part.mu.Lock()
	if a.part.table != nil {
		var grown int64
		for _, t := range ts {
			grown += a.shared.absorbTuple(a.part.table, t, a)
		}
		// Reserved before the partial lock drops: a dump, which releases
		// these groups, must take that lock first.
		a.shared.reserve(grown)
	}
	a.part.mu.Unlock()
}

// drainChild absorbs the child batch-at-a-time (clamped to the M1 window so
// absorb-phase monitoring cadence is unchanged) into this clone's table.
func (a *HashAggregate) drainChild() error {
	s := a.shared
	defer s.barrier.arrive()
	a.in.SetLimit(batchLimit(a.ctx, relation.DefaultBatchSize))
	prev := a.ctx.Meter.ChargedMs()
	for {
		n, err := a.Child.NextBatch(a.in)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		a.ctx.chargeN(a.ctx.Costs.AggMs, n)
		a.absorb(a.in.Tuples)
		// Breach check outside the partial lock: dump takes s.mu then the
		// partial locks, the same order the final merge uses. Concurrent
		// breaching workers serialize on s.mu inside dump; the second
		// arrival dumps whatever trickled in since, which is cheap.
		if s.spillOn && s.mem.Over() {
			if err := s.dump(a); err != nil {
				return err
			}
		}
		// Each worker attributes its own meter's delta for the batch; the
		// shared monitor merges the windows into one M1 stream.
		cur := a.ctx.Meter.ChargedMs()
		s.mon.tickN(n, cur-prev)
		prev = cur
	}
}

// NextBatch implements Iterator: the first call drains the child, absorbing
// whole input batches into group state with one charge bundle per batch; the
// emit phase hands out one row per group by reference, workers pulling
// disjoint runs from the shared cursor.
func (a *HashAggregate) NextBatch(dst *relation.Batch) (int, error) {
	if !a.emitting {
		if err := a.drain(); err != nil {
			return 0, err
		}
	}
	dst.Rewind()
	s := a.shared
	s.mu.Lock()
	n := len(s.out) - s.pos
	if n <= 0 {
		s.mu.Unlock()
		return 0, nil
	}
	if c := dst.Cap(); n > c {
		n = c
	}
	dst.AppendAll(s.out[s.pos : s.pos+n])
	s.pos += n
	s.mu.Unlock()
	a.ctx.chargeFlat(a.ctx.Costs.ProjectMs * float64(n))
	return n, nil
}

// absorbTuple folds one input tuple into its group in tab and returns the
// accounted bytes of a group it created, which the caller reserves before
// it releases whatever lock guards tab; a carries the column metadata
// (identical across clones).
func (s *aggState) absorbTuple(tab aggTable, t relation.Tuple, a *HashAggregate) (grown int64) {
	nk := len(a.GroupOrds)
	h := t.Hash(a.GroupOrds)
	p := tab.part(int32(h % uint64(s.buckets)))
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

// mergeAndFreeze brings every partial into the final table (which already
// holds any replayed groups) and freezes the emit output. A partition the
// final table holds nothing of is adopted whole — slabs, chains and the
// reservations behind them; only a partition both sides hold is folded.
func (s *aggState) mergeAndFreeze(a *HashAggregate) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.partials {
		p.mu.Lock()
		for i := range p.table {
			if dst, src := &s.final[i], &p.table[i]; dst.live == 0 {
				*dst = *src
			} else {
				s.fold(dst, src, a.Kinds)
			}
		}
		p.table = nil
		p.mu.Unlock()
	}
	if s.runName != "" {
		// Dumped partial-aggregate records re-merge into the freshly merged
		// in-memory table; the distinct result groups this materialises are
		// exactly what the emit buffer holds anyway (see spillagg.go).
		if err := s.reloadLocked(a); err != nil {
			s.mergeErr = err
			return
		}
	}
	s.freezeLocked(a)
}

// fold merges every group of src into dst. A group both sides hold keeps
// dst's reservation and returns its own; one only src holds carries its
// reservation along.
func (s *aggState) fold(dst, src *aggPart, kinds []logical.AggKind) {
	var freed int64
	nk, na := len(s.keyOrds), len(kinds)
	for h, c := range src.chains {
		for g, i := c.head, c.n; i > 0; g, i = src.next[g], i-1 {
			row, accs := src.slot(g, nk+na, na)
			if !mergeGroup(dst, h, row, accs, s.keyOrds, kinds) {
				freed += groupBytes(row[:nk], na)
			}
		}
	}
	if s.spillOn {
		s.bytes.Add(-freed)
		s.mem.Release(freed)
	}
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

// freezeLocked turns the final table into output rows, ascending by group
// key for deterministic per-instance output. Each group's results are
// written into its own row, which is emitted where it lies; the rows keep
// their chunks alive, and the table goes.
func (s *aggState) freezeLocked(a *HashAggregate) {
	nk, na := len(a.GroupOrds), len(a.Kinds)
	if nk == 0 && s.final.live() == 0 {
		// A global aggregate emits exactly one row even over empty input.
		s.final[0].group(0, nil, nil, na)
	}
	s.out = make([]relation.Tuple, 0, s.final.live())
	for pi := range s.final {
		p := &s.final[pi]
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
	s.final = nil
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

// Close implements Iterator. The shared state survives until the last
// sibling clone closes.
func (a *HashAggregate) Close() error {
	err := a.Child.Close()
	if a.part != nil {
		a.part.mu.Lock()
		a.part.table = nil
		a.part.mu.Unlock()
	}
	if a.shared != nil {
		a.shared.release()
	}
	if a.in != nil {
		a.in.Release()
		a.in = nil
	}
	return err
}

// InsertState implements StateTarget: replayed raw input tuples are
// re-absorbed into the final table on this clone. It may run concurrently
// with absorbing workers and with other replay deliveries. A replay that
// finds no table — the aggregate is not open yet, or has frozen its output or
// closed — cannot be absorbed and StateTarget cannot refuse it (ROADMAP item
// 1); every tuple lost that way is counted.
func (a *HashAggregate) InsertState(tuples []relation.Tuple) {
	absorbed := 0
	if s := a.shared; s != nil && s.ready.Load() {
		for _, t := range tuples {
			s.insertMeter.charge(s.ctx.Node.PerturbedCost(s.ctx.Costs.AggMs))
			s.mu.Lock()
			if s.final != nil {
				s.reserve(s.absorbTuple(s.final, t, a))
				absorbed++
			}
			s.mu.Unlock()
		}
	}
	obs.Default().Counter(obs.MAggReplayDropped).Add(int64(len(tuples) - absorbed))
}

// EvictBuckets implements StateTarget: the bucket vanishes from the final
// table and from every worker table, so partial contributions cannot
// double-count against the replayed history at the new owner.
func (a *HashAggregate) EvictBuckets(buckets []int32) {
	s := a.shared
	if s == nil || !s.ready.Load() {
		return
	}
	// s.mu is held throughout, so no dump can slip between the watermark and
	// a worker table's eviction and carry the bucket's groups past it.
	s.mu.Lock()
	defer s.mu.Unlock()
	s.final.evict(buckets, s.buckets)
	if s.spillOn && s.runName != "" {
		// Dumped records of the bucket die at the current watermark; groups
		// replayed afterwards are dumped beyond it and survive the reload.
		if s.evictedAt == nil {
			s.evictedAt = make(map[int32]int64)
		}
		for _, b := range buckets {
			s.evictedAt[b] = s.recCount
			delete(s.spillLive, b)
		}
	}
	for _, p := range s.partials {
		p.mu.Lock()
		p.table.evict(buckets, s.buckets)
		p.mu.Unlock()
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

// StateSize implements StateTarget: the groups held in the final table and
// every worker table, or, once frozen, as output rows.
func (a *HashAggregate) StateSize() int {
	s := a.shared
	if s == nil || !s.ready.Load() {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.final.live() + len(s.out)
	// Dumped records count as held state (an upper bound: a group dumped
	// twice counts twice until the reload re-merges it).
	for _, c := range s.spillLive {
		n += int(c)
	}
	for _, p := range s.partials {
		p.mu.Lock()
		n += p.table.live()
		p.mu.Unlock()
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

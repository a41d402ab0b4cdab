package engine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/logical"
	"repro/internal/relation"
	"repro/internal/storage"
)

// HashAggregate groups its input by key columns and computes aggregates per
// group. Like the hash join, its state is organised in routing buckets and
// implements StateTarget, so the retrospective (R1) protocol can move whole
// buckets of groups to another clone: the moved groups' raw input tuples
// are replayed from the exchange recovery logs and re-absorbed at the new
// owner. The aggregate is the second stateful operator of the engine and
// demonstrates that the paper's architecture extends beyond hash joins.
//
// Under morsel parallelism each worker clone absorbs into a private partial
// table — aggregation is commutative, so no locks on the hot path — and the
// partials are merged into the shared table once all workers reach the
// absorb barrier. Replayed tuples (R1) always land in the shared table, and
// evictions sweep the partials too, so a bucket moved mid-absorb loses its
// partial contributions exactly as the replayed history recreates them.
type HashAggregate struct {
	Child     Iterator
	GroupOrds []int
	// Kinds and ArgOrds describe the aggregate columns (ArgOrd -1 for
	// COUNT(*)).
	Kinds   []logical.AggKind
	ArgOrds []int

	ctx     *ExecContext
	buckets int
	shared  *aggState
	// acct is this clone's budget stripe handle (stripe 0 for serial runs).
	acct *storage.BudgetAcct
	// part is this clone's private absorb table.
	part *aggPartial

	// emitting flips once this clone has drained and the merged output is
	// frozen; the emit cursor itself lives in the shared state.
	emitting bool

	// in is the owned input batch for the vectorized absorb phase.
	in *relation.Batch
}

// aggPartial is one worker's lock-private slice of group state. Its mutex is
// uncontended on the absorb path; only R1 evictions and the final merge
// touch it from outside.
type aggPartial struct {
	mu    sync.Mutex
	state map[int32]map[uint64][]*groupState
}

// aggState is shared by every worker clone of one HashAggregate. Its state
// map holds replayed tuples during the absorb phase and the fully merged
// groups afterwards; out/pos are the frozen emit output and shared cursor.
type aggState struct {
	initOnce sync.Once
	ready    atomic.Bool
	ctx      *ExecContext // first opener's context; shared fields only
	buckets  int

	insertMeter *opInsertMeter
	mon         *opMonitor
	barrier     buildBarrier
	mergeOnce   sync.Once
	refs        atomic.Int32

	mu       sync.Mutex
	state    map[int32]map[uint64][]*groupState
	partials []*aggPartial
	out      []relation.Tuple
	pos      int

	// Spill wiring (aggregates under a memory budget, serial or
	// morsel-parallel; see spillagg.go). On breach every group — shared and
	// partial — is dumped as a partial-aggregate record to one append-only
	// run and the tables restart empty; the final merge reloads and
	// re-merges the run. Workers account group creation through per-stripe
	// budget handles; the dump itself serializes under mu.
	spillOn bool
	mem     *storage.Budget
	acct0   *storage.BudgetAcct // stripe-0 handle for replay/merge paths
	backend storage.Backend
	base    string
	met     spillMetrics
	// bytes is the accounted in-memory group footprint. Atomic because
	// groups are created under either s.mu (replays, merge) or a partial's
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

func (s *aggState) init(ctx *ExecContext) {
	s.initOnce.Do(func() {
		s.ctx = ctx
		s.buckets = ctx.Buckets
		if s.buckets <= 0 {
			s.buckets = DefaultBuckets
		}
		s.state = make(map[int32]map[uint64][]*groupState)
		s.insertMeter = newOpInsertMeter(ctx)
		s.mon = newOpMonitor(ctx)
		if ctx.spillEnabled() {
			s.spillOn = true
			s.mem = ctx.Mem
			s.acct0 = ctx.Mem.Acct(0)
			s.backend = ctx.Spill
			s.base = ctx.spillRunName("agg")
			s.met = newSpillMetrics()
		} else {
			recordUngoverned(ctx, "agg")
		}
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
	s.state = nil
	s.out = nil
	s.mu.Unlock()
}

// groupState is one group's accumulators.
type groupState struct {
	key  relation.Tuple // group-key values, in GroupOrds order
	accs []accumulator
}

// accumulator folds one aggregate column.
type accumulator struct {
	count  int64
	sum    float64
	minmax relation.Value
	seen   bool
}

// merge folds another accumulator for the same group and kind into acc.
func (acc *accumulator) merge(other accumulator, kind logical.AggKind) {
	switch kind {
	case logical.AggCount, logical.AggSum, logical.AggAvg:
		acc.count += other.count
		acc.sum += other.sum
	case logical.AggMin:
		if other.seen && (!acc.seen || other.minmax.Compare(acc.minmax) < 0) {
			acc.minmax = other.minmax
			acc.seen = true
		}
	case logical.AggMax:
		if other.seen && (!acc.seen || other.minmax.Compare(acc.minmax) > 0) {
			acc.minmax = other.minmax
			acc.seen = true
		}
	}
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
	s.init(ctx)
	a.buckets = s.buckets
	a.acct = ctx.memAcct()
	a.part = &aggPartial{state: make(map[int32]map[uint64][]*groupState)}
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

// absorb folds one input tuple into this clone's partial — the same path
// the drain loop takes per batch. Tests use it to script mid-absorb
// evict/replay interleavings.
func (a *HashAggregate) absorb(t relation.Tuple) {
	a.part.mu.Lock()
	if a.part.state != nil {
		absorbTuple(a.part.state, t, a.buckets, a)
	}
	a.part.mu.Unlock()
}

// drainChild absorbs the child batch-at-a-time (clamped to the M1 window so
// absorb-phase monitoring cadence is unchanged) into this clone's partial.
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
		a.part.mu.Lock()
		if a.part.state != nil {
			for _, t := range a.in.Tuples {
				absorbTuple(a.part.state, t, a.buckets, a)
			}
		}
		a.part.mu.Unlock()
		// Breach check outside the partial lock: dump takes s.mu then the
		// partial locks, the same order the final merge uses. Concurrent
		// breaching workers serialize on s.mu inside dump; the second
		// arrival dumps whatever trickled in since, which is cheap.
		if s.spillOn && a.acct.Over() {
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
	for _, t := range s.out[s.pos : s.pos+n] {
		dst.Append(t)
	}
	s.pos += n
	s.mu.Unlock()
	a.ctx.chargeFlat(a.ctx.Costs.ProjectMs * float64(n))
	return n, nil
}

// absorbTuple folds one input tuple into its group within state. The caller
// holds whatever lock guards state; a carries the column metadata (identical
// across clones).
func absorbTuple(state map[int32]map[uint64][]*groupState, t relation.Tuple, buckets int, a *HashAggregate) {
	h := t.Hash(a.GroupOrds)
	b := int32(h % uint64(buckets))
	g := findOrCreateGroup(state, b, h, t, a)
	for i, kind := range a.Kinds {
		acc := &g.accs[i]
		ord := a.ArgOrds[i]
		var v relation.Value
		if ord >= 0 {
			v = t[ord]
			if v.IsNull() {
				continue // SQL aggregates skip NULLs
			}
		}
		switch kind {
		case logical.AggCount:
			acc.count++
		case logical.AggSum, logical.AggAvg:
			acc.count++
			acc.sum += v.AsFloat()
		case logical.AggMin:
			if !acc.seen || v.Compare(acc.minmax) < 0 {
				acc.minmax = v
				acc.seen = true
			}
		case logical.AggMax:
			if !acc.seen || v.Compare(acc.minmax) > 0 {
				acc.minmax = v
				acc.seen = true
			}
		}
	}
}

// findOrCreateGroup locates t's group in the (bucket, hash) chain of state,
// creating it if absent.
func findOrCreateGroup(state map[int32]map[uint64][]*groupState, b int32, h uint64, t relation.Tuple, a *HashAggregate) *groupState {
	m := state[b]
	if m == nil {
		m = make(map[uint64][]*groupState)
		state[b] = m
	}
	for _, cand := range m[h] {
		if a.sameKey(cand.key, t) {
			return cand
		}
	}
	g := &groupState{key: t.Project(a.GroupOrds), accs: make([]accumulator, len(a.Kinds))}
	m[h] = append(m[h], g)
	a.shared.accountGroup(g, a.acct)
	return g
}

func (a *HashAggregate) sameKey(key relation.Tuple, t relation.Tuple) bool {
	for i, ord := range a.GroupOrds {
		if !key[i].Equal(t[ord]) {
			return false
		}
	}
	return true
}

// keyTuplesEqual compares two group-key tuples (both in GroupOrds order).
func keyTuplesEqual(x, y relation.Tuple) bool {
	for i := range x {
		if !x[i].Equal(y[i]) {
			return false
		}
	}
	return true
}

// mergeAndFreeze folds every partial into the shared table (which already
// holds any replayed groups) and freezes the emit output, sorted by group
// key for deterministic per-instance output.
func (s *aggState) mergeAndFreeze(a *HashAggregate) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.partials {
		p.mu.Lock()
		for b, m := range p.state {
			for h, chain := range m {
				for _, g := range chain {
					dst := s.findOrCreateMergedLocked(b, h, g.key, len(a.Kinds))
					for i, kind := range a.Kinds {
						dst.accs[i].merge(g.accs[i], kind)
					}
				}
			}
		}
		p.state = nil // absorbed into the shared table
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

// findOrCreateMergedLocked is findOrCreateGroup for the merge path, where
// the probe is a ready-made key tuple rather than an input tuple.
func (s *aggState) findOrCreateMergedLocked(b int32, h uint64, key relation.Tuple, nAccs int) *groupState {
	m := s.state[b]
	if m == nil {
		m = make(map[uint64][]*groupState)
		s.state[b] = m
	}
	for _, cand := range m[h] {
		if keyTuplesEqual(cand.key, key) {
			return cand
		}
	}
	g := &groupState{key: key, accs: make([]accumulator, nAccs)}
	m[h] = append(m[h], g)
	s.accountGroup(g, s.acct0)
	return g
}

// freezeLocked freezes the state into output rows.
func (s *aggState) freezeLocked(a *HashAggregate) {
	// The output order is the order of the rendered keys; each is rendered
	// once, not twice per comparison.
	type keyedGroup struct {
		key string
		g   *groupState
	}
	var groups []keyedGroup
	for _, m := range s.state {
		for _, chain := range m {
			for _, g := range chain {
				groups = append(groups, keyedGroup{g.key.Key(), g})
			}
		}
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].key < groups[j].key })
	s.out = s.out[:0]
	for _, kg := range groups {
		g := kg.g
		row := make(relation.Tuple, 0, len(g.key)+len(g.accs))
		row = append(row, g.key...)
		for i, kind := range a.Kinds {
			row = append(row, g.accs[i].result(kind))
		}
		s.out = append(s.out, row)
	}
	// A global aggregate emits exactly one row even over empty input.
	if len(a.GroupOrds) == 0 && len(groups) == 0 {
		row := make(relation.Tuple, 0, len(a.Kinds))
		var empty accumulator
		for _, kind := range a.Kinds {
			row = append(row, empty.result(kind))
		}
		s.out = append(s.out, row)
	}
}

// result finalises one accumulator.
func (acc *accumulator) result(kind logical.AggKind) relation.Value {
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
		if !acc.seen {
			return relation.Null
		}
		return acc.minmax
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
		a.part.state = nil
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
// re-absorbed into the shared table on this clone. It may run concurrently
// with absorbing workers and with other replay deliveries.
func (a *HashAggregate) InsertState(tuples []relation.Tuple) {
	s := a.shared
	if s == nil || !s.ready.Load() {
		return
	}
	for _, t := range tuples {
		s.insertMeter.charge(s.ctx.Node.PerturbedCost(s.ctx.Costs.AggMs))
		s.mu.Lock()
		if s.state != nil {
			absorbTuple(s.state, t, s.buckets, a)
		}
		s.mu.Unlock()
	}
}

// EvictBuckets implements StateTarget: the bucket vanishes from the shared
// table and from every worker partial, so partial contributions cannot
// double-count against the replayed history at the new owner.
func (a *HashAggregate) EvictBuckets(buckets []int32) {
	s := a.shared
	if s == nil || !s.ready.Load() {
		return
	}
	s.mu.Lock()
	if s.state != nil {
		for _, b := range buckets {
			delete(s.state, b)
		}
	}
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
	partials := append([]*aggPartial(nil), s.partials...)
	s.mu.Unlock()
	for _, p := range partials {
		p.mu.Lock()
		if p.state != nil {
			for _, b := range buckets {
				delete(p.state, b)
			}
		}
		p.mu.Unlock()
	}
}

// StateSize implements StateTarget: the number of groups held across the
// shared table and all partials.
func (a *HashAggregate) StateSize() int {
	s := a.shared
	if s == nil || !s.ready.Load() {
		return 0
	}
	n := 0
	s.mu.Lock()
	for _, m := range s.state {
		for _, chain := range m {
			n += len(chain)
		}
	}
	// Dumped records count as held state (an upper bound: a group dumped
	// twice counts twice until the reload re-merges it).
	for _, c := range s.spillLive {
		n += int(c)
	}
	partials := append([]*aggPartial(nil), s.partials...)
	s.mu.Unlock()
	for _, p := range partials {
		p.mu.Lock()
		for _, m := range p.state {
			for _, chain := range m {
				n += len(chain)
			}
		}
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
	acct   *storage.BudgetAcct
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
	s.acct = ctx.memAcct()
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
		if !spill {
			s.sorted = append(s.sorted, s.in.Tuples...)
			continue
		}
		for _, t := range s.in.Tuples {
			s.sorted = append(s.sorted, t)
			sz := sortTupleBytes(t)
			s.bufBytes += sz
			s.acct.Reserve(sz)
			// Over is query-global: shed only when this buffer is a
			// real share of the budget, or an over-budget neighbour
			// (a frozen aggregate upstream) makes every tuple a run.
			if s.acct.Over() && s.bufBytes >= s.ctx.Mem.Limit()/sortShedShare {
				if err := s.flushRun(); err != nil {
					return err
				}
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
// result and advances *pos past them — the emit phase of the blocking
// ordering operators (Sort, TopN).
func emitSorted(dst *relation.Batch, sorted []relation.Tuple, pos *int) int {
	dst.Rewind()
	n := min(len(sorted)-*pos, dst.Cap())
	dst.AppendAll(sorted[*pos : *pos+n])
	*pos += n
	return n
}

func (s *Sort) less(a, b relation.Tuple) bool {
	for i, ord := range s.Ords {
		cmp := a[ord].Compare(b[ord])
		if s.Desc[i] {
			cmp = -cmp
		}
		if cmp != 0 {
			return cmp < 0
		}
	}
	return false
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

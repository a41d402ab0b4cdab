package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
	"repro/internal/storage"
)

// StateTarget is implemented by stateful operators whose state is organised
// in routing buckets and can be repartitioned at runtime: the Responder's
// retrospective (R1) protocol evicts buckets from old owners and recreates
// them on new owners by replaying recovery-log tuples (paper §3.1).
type StateTarget interface {
	// InsertState absorbs replayed build tuples into operator state.
	InsertState(tuples []relation.Tuple)
	// EvictBuckets discards the state of the given buckets.
	EvictBuckets(buckets []int32)
	// StateSize reports the number of tuples held as state.
	StateSize() int
}

// joinPartitions is the lock-striping factor of the shared build table. A
// routing bucket maps to partition bucket%joinPartitions, so an R1 eviction
// of a bucket touches exactly one partition and morsel workers building or
// probing different partitions never contend.
const joinPartitions = 16

// joinEntry is one build tuple in a partition's entry arena. Chains thread
// entries of the same (bucket, hash) together in insertion order, so
// duplicate build keys keep the FIFO match order the old per-key slices had.
type joinEntry struct {
	t    relation.Tuple
	next int32 // arena index of the next entry in the chain; -1 ends it
}

// chainRef locates one hash chain in the arena. The routing bucket is a
// pure function of the hash (b = h % buckets), so chains are keyed by hash
// alone: one map lookup per insert/probe instead of two, and no per-bucket
// inner maps to allocate. R1 evictions — rare, one per adaptation — recover
// the bucket by scanning the partition's chains.
type chainRef struct {
	head, tail int32
	n          int32
}

// unlinkBucket deletes the chains of routing bucket b from one partition's
// map and reports how many entries they held. Evictions are rare (one per R1
// adaptation), so the scan is off every hot path.
func unlinkBucket(chains map[uint64]chainRef, b int32, buckets int) (n int) {
	for h, c := range chains {
		if int32(h%uint64(buckets)) == b {
			n += int(c.n)
			delete(chains, h)
		}
	}
	return n
}

type joinPart struct {
	mu sync.Mutex
	// entries is the partition's build-tuple arena, pre-sized from the
	// optimiser's cardinality estimate: inserting appends here instead of
	// growing one slice per distinct key.
	entries []joinEntry
	chains  map[uint64]chainRef // hash → chain (bucket derivable from hash)
	held    int

	// Grace-hash spill state (joins under a memory budget, serial or
	// morsel-parallel; see spill.go). Once spilled, the partition's build
	// tuples live in a build run, probe tuples route to a probe run, and
	// matching is deferred to the post-probe drain.
	bytes      int64 // accounted bytes of the in-memory entries
	spilled    bool
	build      storage.RunWriter
	probe      storage.RunWriter
	buildName  string
	probeName  string
	buildCount int64           // records appended to the build run
	probeCount int64           // records appended to the probe run
	spillLive  map[int32]int64 // live (unevicted) spilled tuples per bucket
	evicts     []spillEvict    // R1 evictions recorded while spilled
}

// joinState is the build-side hash table shared by every worker clone of one
// HashJoin (and by the serial join, which is simply a one-worker pool). It
// is the unit the R1 protocol targets: evict/replay address buckets here, so
// repartitioning is oblivious to how many workers built the table.
type joinState struct {
	initOnce sync.Once
	ready    atomic.Bool
	ctx      *ExecContext // first opener's context; shared fields only
	buckets  int

	insertMeter *opInsertMeter
	mon         *opMonitor
	barrier     buildBarrier
	// refs counts unclosed clones; the last Close releases the table.
	refs  atomic.Int32
	parts [joinPartitions]joinPart

	// Spill wiring (see spill.go): workers coordinate partition eviction
	// under spillMu.
	spillEnv
	// spillMu serializes victim selection and partition eviction across
	// workers, so two breaching workers never race to spill partitions.
	spillMu sync.Mutex

	// Parallel drain coordination: probers meet at probeBarrier once their
	// probe inputs are exhausted, one worker seals the spilled runs
	// (sealOnce), and the resulting pairs queue in pairQ for any worker to
	// drain — pairs are independent, so workers pull and match them
	// concurrently, repartitioned sub-pairs re-queueing at the front.
	probeBarrier buildBarrier
	sealOnce     sync.Once
	pairMu       sync.Mutex
	pairQ        []spillPair

	errMu    sync.Mutex
	spillErr error // first spill I/O failure; surfaced before completion
}

func newJoinState() *joinState {
	s := &joinState{}
	s.refs.Store(1)
	s.barrier.reset(1)
	s.probeBarrier.reset(1)
	return s
}

func (s *joinState) init(ctx *ExecContext, est int) {
	s.initOnce.Do(func() {
		s.ctx = ctx
		s.buckets = ctx.Buckets
		if s.buckets <= 0 {
			s.buckets = DefaultBuckets
		}
		s.insertMeter = newOpInsertMeter(ctx)
		s.mon = newOpMonitor(ctx)
		// Pre-size from the optimiser's build-side estimate: each partition
		// arena and chain map gets its uniform share plus 25% headroom for
		// skew. est <= 0 (no estimate) falls back to grow-on-demand.
		perPart := 0
		if est > 0 {
			perPart = est/joinPartitions + est/(4*joinPartitions) + 8
		}
		for i := range s.parts {
			p := &s.parts[i]
			p.chains = make(map[uint64]chainRef, perPart)
			if perPart > 0 {
				p.entries = make([]joinEntry, 0, perPart)
			}
		}
		s.spillEnv = newSpillEnv(ctx, "join")
		s.ready.Store(true)
	})
}

func (s *joinState) part(b int32) *joinPart {
	return &s.parts[int(b)%joinPartitions]
}

// insertBatch adds build tuples one partition lock at a time; charge, when
// set, runs before each (a replay's per-tuple insert cost). The whole batch
// is reserved in one call before any of it is published, so a concurrent
// spiller releasing p.bytes is always covered by completed reservations and
// the accountant never clamps on a live partition; what the batch does not
// hold in memory is released in one call after it. The breach check runs
// once per batch: Over is a single shared load, and the bounded over-shoot
// of a batch (at most one morsel of entries) just means the victim
// partition spills marginally later.
func (s *joinState) insertBatch(keys []int, ts []relation.Tuple, charge func()) {
	if s.spillOn {
		var reserve int64
		for _, t := range ts {
			reserve += spillEntryBytes(t)
		}
		s.mem.Reserve(reserve)
	}
	var unheld int64
	for _, t := range ts {
		if charge != nil {
			charge()
		}
		unheld += s.insertOne(keys, t)
	}
	if s.spillOn {
		s.mem.Release(unheld)
		if s.mem.Over() {
			s.spillVictims()
		}
	}
}

// insertOne appends one reserved build tuple to its partition's entry arena
// and links it onto the hash chain. It returns the tuple's reserved bytes
// when the partition does not hold it in memory: a spilled partition routes
// it to the build run, and a released table (a post-close replay) drops it.
func (s *joinState) insertOne(keys []int, t relation.Tuple) (unheld int64) {
	h := t.Hash(keys)
	b := int32(h % uint64(s.buckets))
	p := s.part(b)
	var reserve int64
	if s.spillOn {
		reserve = spillEntryBytes(t)
	}
	p.mu.Lock()
	if p.spilled {
		s.appendSpilledLocked(p, b, t)
		p.mu.Unlock()
		return reserve
	}
	if p.chains == nil {
		p.mu.Unlock()
		return reserve
	}
	idx := int32(len(p.entries))
	p.entries = append(p.entries, joinEntry{t: t, next: -1})
	if c, ok := p.chains[h]; ok {
		p.entries[c.tail].next = idx
		c.tail, c.n = idx, c.n+1
		p.chains[h] = c
	} else {
		p.chains[h] = chainRef{head: idx, tail: idx, n: 1}
	}
	p.held++
	p.bytes += reserve
	p.mu.Unlock()
	return 0
}

// release drops one clone reference; the last one frees the table. Inserts
// arriving after release (a replay racing query completion) become benign
// no-ops, as before.
func (s *joinState) release() {
	if s.refs.Add(-1) != 0 {
		return
	}
	for i := range s.parts {
		p := &s.parts[i]
		p.mu.Lock()
		if p.build != nil {
			_ = p.build.Close()
			p.build = nil
		}
		if p.probe != nil {
			_ = p.probe.Close()
			p.probe = nil
		}
		if p.spilled {
			_ = s.backend.Remove(p.buildName)
			_ = s.backend.Remove(p.probeName)
			p.spilled = false
			p.spillLive = nil
			p.evicts = nil
		}
		if p.bytes > 0 {
			s.mem.Release(p.bytes)
			p.bytes = 0
		}
		p.chains = nil
		p.entries = nil
		p.held = 0
		p.mu.Unlock()
	}
	// Queued drain pairs no clone ever pulled (a cancelled or failed query)
	// leave their runs behind; sweep them with the table.
	s.pairMu.Lock()
	for _, pr := range s.pairQ {
		_ = s.backend.Remove(pr.build)
		_ = s.backend.Remove(pr.probe)
	}
	s.pairQ = nil
	s.pairMu.Unlock()
}

// buildBarrier holds probers back until every worker has finished building
// (or absorbing, for the aggregate). A worker that fails mid-build still
// arrives — the drain loops arrive via defer — and an interrupted fragment
// closes the shared source so remaining drains return 0 and arrive promptly.
// cancel covers the one remaining hang: a worker that errors before ever
// reaching the barrier operator's Open.
type buildBarrier struct {
	mu        sync.Mutex
	remaining int
	cancelled bool
	done      chan struct{}
}

func (b *buildBarrier) reset(n int) {
	b.mu.Lock()
	b.remaining = n
	b.cancelled = false
	b.done = make(chan struct{})
	b.mu.Unlock()
}

func (b *buildBarrier) arrive() {
	b.mu.Lock()
	b.remaining--
	if b.remaining == 0 && !b.cancelled {
		close(b.done)
	}
	b.mu.Unlock()
}

// cancel releases all waiters with an error; used when a sibling worker
// fails before arriving.
func (b *buildBarrier) cancel() {
	b.mu.Lock()
	if !b.cancelled && b.remaining > 0 {
		b.cancelled = true
		close(b.done)
	}
	b.mu.Unlock()
}

func (b *buildBarrier) wait() error {
	b.mu.Lock()
	done := b.done
	b.mu.Unlock()
	<-done
	b.mu.Lock()
	cancelled := b.cancelled
	b.mu.Unlock()
	if cancelled {
		return fmt.Errorf("engine: build barrier cancelled by failed worker")
	}
	return nil
}

// HashJoin is the partitioned equi-join: it drains its build input into a
// bucketed hash table during Open, then streams the probe input, emitting
// one tuple per match: the build tuple followed by the probe tuple, or the
// Out columns of that when a projection is fused in. Each clone of the join
// holds only the buckets the current distribution policy routes to it;
// moving a bucket to another clone moves the corresponding state.
//
// Under morsel parallelism several worker clones share one joinState: all
// workers drain the shared build source into the partitioned table, meet at a
// barrier, then probe concurrently. Build order across workers is immaterial
// — the table is a bag per (bucket, hash) and probing starts only after the
// barrier, so the probe sees the same complete table a serial build yields.
type HashJoin struct {
	Build, Probe         Iterator
	BuildKeys, ProbeKeys []int
	// BuildEst is the optimiser's build-side cardinality estimate; when
	// positive, the shared table's partition arenas and chain maps are
	// pre-sized for it instead of growing on demand.
	BuildEst int
	// Out, when set, is a projection fused into the join: the ordinals over
	// build ++ probe each match emits, in order, charged ProjectMs per
	// emitted tuple exactly as a Project over the join would be. The
	// concatenated match is never built.
	Out []int

	ctx     *ExecContext
	buckets int
	shared  *joinState

	// pending holds overflow outputs that did not fit the current output
	// batch (a single probe tuple can match many build tuples); pendHead
	// indexes the next undelivered one, so draining keeps the slice's
	// capacity as a reusable scratch buffer instead of reslicing it away.
	pending  []relation.Tuple
	pendHead int
	// in is the owned probe-side input batch; arena amortizes output-tuple
	// allocation.
	in    *relation.Batch
	arena relation.Arena
	// drain matches probe tuples deferred to spilled partitions once the
	// streaming probe phase is exhausted (see spill.go).
	drain *joinSpillDrain
}

// ensureShared lazily creates the shared state. Not safe for concurrent
// callers: it runs during plan compilation / worker-chain construction,
// strictly before workers start.
func (j *HashJoin) ensureShared() *joinState {
	if j.shared == nil {
		j.shared = newJoinState()
	}
	return j.shared
}

// WorkerClone returns a join over the given per-worker inputs that shares
// this join's build table, barrier, and monitoring state.
func (j *HashJoin) WorkerClone(build, probe Iterator) *HashJoin {
	return &HashJoin{
		Build: build, Probe: probe,
		BuildKeys: j.BuildKeys, ProbeKeys: j.ProbeKeys,
		BuildEst: j.BuildEst, Out: j.Out,
		shared: j.ensureShared(),
	}
}

// SetWorkers declares how many clones (including any that is itself run)
// will Open and Close this join's shared state. Call before any worker
// starts; the default is 1, the serial contract.
func (j *HashJoin) SetWorkers(n int) {
	s := j.ensureShared()
	s.refs.Store(int32(n))
	s.barrier.reset(n)
	s.probeBarrier.reset(n)
}

// Open implements Iterator: it drains the build input batch-at-a-time
// (clamped to the M1 window so build-phase monitoring cadence is unchanged)
// into the shared table, then waits for every sibling worker's build before
// opening the probe side.
func (j *HashJoin) Open(ctx *ExecContext) error {
	j.ctx = ctx
	s := j.ensureShared()
	s.init(ctx, j.BuildEst)
	j.buckets = s.buckets
	j.in = relation.GetBatch()
	if err := j.openBuild(ctx, s); err != nil {
		return err
	}
	if err := s.barrier.wait(); err != nil {
		return err
	}
	return j.Probe.Open(ctx)
}

func (j *HashJoin) openBuild(ctx *ExecContext, s *joinState) error {
	defer s.barrier.arrive()
	if err := j.Build.Open(ctx); err != nil {
		return err
	}
	j.in.SetLimit(batchLimit(ctx, relation.DefaultBatchSize))
	prev := ctx.Meter.ChargedMs()
	for {
		n, err := j.Build.NextBatch(j.in)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		ctx.chargeN(ctx.Costs.JoinBuildMs, n)
		s.insertBatch(j.BuildKeys, j.in.Tuples, nil)
		// The build phase produces nothing, so the driver's M1 emission is
		// silent; emit operator-level events so the Diagnoser can already
		// rebalance a perturbed build. Each worker attributes its own
		// meter's delta for the batch, which the shared monitor merges.
		cur := ctx.Meter.ChargedMs()
		s.mon.tickN(n, cur-prev)
		prev = cur
	}
}

// NextBatch implements Iterator: it probes whole input batches,
// emitting matches carved from an arena. Matches overflowing dst spill to
// pending and lead the next batch. A fused projection is charged once per
// returned batch, after the probe, as the Project it replaces would be.
func (j *HashJoin) NextBatch(dst *relation.Batch) (int, error) {
	n, err := j.nextBatch(dst)
	if err == nil && j.Out != nil {
		j.ctx.chargeN(j.ctx.Costs.ProjectMs, n)
	}
	return n, err
}

func (j *HashJoin) nextBatch(dst *relation.Batch) (int, error) {
	dst.Rewind()
	for j.pendHead < len(j.pending) && !dst.Full() {
		dst.Append(j.pending[j.pendHead])
		j.pendHead++
	}
	if j.pendHead == len(j.pending) {
		j.pending, j.pendHead = j.pending[:0], 0
	}
	j.in.SetLimit(dst.Cap())
	for dst.Len() == 0 {
		n, err := j.Probe.NextBatch(j.in)
		if err != nil {
			return dst.Len(), err
		}
		if n == 0 {
			if j.shared.spillOn {
				more, derr := j.drainPending()
				if derr != nil {
					return dst.Len(), derr
				}
				if more {
					for j.pendHead < len(j.pending) && !dst.Full() {
						dst.Append(j.pending[j.pendHead])
						j.pendHead++
					}
					if j.pendHead == len(j.pending) {
						j.pending, j.pendHead = j.pending[:0], 0
					}
					continue
				}
			}
			return dst.Len(), nil
		}
		j.ctx.chargeN(j.ctx.Costs.JoinProbeMs, n)
		for _, t := range j.in.Tuples {
			h := t.Hash(j.ProbeKeys)
			b := int32(h % uint64(j.buckets))
			p := j.shared.part(b)
			p.mu.Lock()
			if p.spilled {
				j.shared.routeProbeLocked(p, t)
				p.mu.Unlock()
				continue
			}
			c, ok := p.chains[h]
			if !ok {
				p.mu.Unlock()
				continue
			}
			for e := c.head; e >= 0; e = p.entries[e].next {
				cand := p.entries[e].t
				if !j.keysEqual(cand, t) {
					continue
				}
				out := j.emit(cand, t)
				if dst.Full() {
					j.pending = append(j.pending, out)
				} else {
					dst.Append(out)
				}
			}
			p.mu.Unlock()
		}
	}
	return dst.Len(), nil
}

// emit builds the output tuple of one match from the arena: build ++ probe,
// or just the Out columns of it.
func (j *HashJoin) emit(build, probe relation.Tuple) relation.Tuple {
	if j.Out == nil {
		out := j.arena.Alloc(len(build) + len(probe))
		copy(out, build)
		copy(out[len(build):], probe)
		return out
	}
	out := j.arena.Alloc(len(j.Out))
	for k, o := range j.Out {
		if o < len(build) {
			out[k] = build[o]
		} else {
			out[k] = probe[o-len(build)]
		}
	}
	return out
}

// keysEqual guards against 64-bit hash collisions.
func (j *HashJoin) keysEqual(build, probe relation.Tuple) bool {
	for i := range j.BuildKeys {
		if !build[j.BuildKeys[i]].Equal(probe[j.ProbeKeys[i]]) {
			return false
		}
	}
	return true
}

// Close implements Iterator. The shared table survives until the last
// sibling clone closes.
func (j *HashJoin) Close() error {
	errB := j.Build.Close()
	errP := j.Probe.Close()
	if j.in != nil {
		j.in.Release()
		j.in = nil
	}
	if j.drain != nil {
		j.drain.close()
		j.drain = nil
	}
	if j.shared != nil {
		j.shared.release()
	}
	if errB != nil {
		return errB
	}
	return errP
}

// InsertState implements StateTarget: replayed build tuples recreate bucket
// state on this clone. It may run concurrently with probing, and with
// several transport goroutines delivering replay buffers at once.
func (j *HashJoin) InsertState(tuples []relation.Tuple) {
	s := j.shared
	if s == nil || !s.ready.Load() {
		return
	}
	s.insertBatch(j.BuildKeys, tuples, func() {
		s.insertMeter.charge(s.ctx.Node.PerturbedCost(s.ctx.Costs.JoinBuildMs))
	})
}

// EvictBuckets implements StateTarget.
func (j *HashJoin) EvictBuckets(buckets []int32) {
	s := j.shared
	if s == nil || !s.ready.Load() {
		return
	}
	// Eviction unlinks the bucket's chains; the arena entries behind them
	// stay allocated until the query releases the table. That is deliberate:
	// evictions are rare (one R1 adaptation each) and the arena's bound is
	// the build side's size either way.
	for _, b := range buckets {
		p := s.part(b)
		p.mu.Lock()
		if p.spilled {
			// The bucket's tuples live in the build run; record the kill
			// window instead of unlinking (see spill.go).
			p.evicts = append(p.evicts, spillEvict{bucket: b, buildIdx: p.buildCount, probeIdx: p.probeCount})
			p.held -= int(p.spillLive[b])
			delete(p.spillLive, b)
			p.mu.Unlock()
			continue
		}
		p.held -= unlinkBucket(p.chains, b, s.buckets)
		p.mu.Unlock()
	}
}

// StateSize implements StateTarget.
func (j *HashJoin) StateSize() int {
	s := j.shared
	if s == nil || !s.ready.Load() {
		return 0
	}
	held := 0
	for i := range s.parts {
		p := &s.parts[i]
		p.mu.Lock()
		held += p.held
		p.mu.Unlock()
	}
	return held
}

// Abort releases sibling workers blocked at the build or probe-completion
// barrier; the worker pool calls it when a worker fails before reaching
// this join's Open (or before finishing its probe share).
func (j *HashJoin) Abort() {
	if j.shared != nil {
		j.shared.barrier.cancel()
		j.shared.probeBarrier.cancel()
	}
}

// BucketOf reports the bucket a build-side tuple belongs to; tests use it
// to cross-check alignment with the distribution policy.
func (j *HashJoin) BucketOf(t relation.Tuple) (int32, error) {
	if j.shared == nil || !j.shared.ready.Load() {
		return 0, fmt.Errorf("engine: join not opened")
	}
	return int32(t.Hash(j.BuildKeys) % uint64(j.shared.buckets)), nil
}

package engine

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/vtime"
)

// StateTarget is implemented by stateful operators whose state is organised
// in routing buckets and can be repartitioned at runtime: the Responder's
// retrospective (R1) protocol evicts buckets from old owners and recreates
// them on new owners by replaying recovery-log tuples (paper §3.1). Both
// calls arrive as operations queued at the instance's flow gate: the
// fragment driver applies them between batches, and once it has closed its
// chain they run under the gate lock, so an operator never sees two at once.
type StateTarget interface {
	// InsertState absorbs replayed build tuples into operator state.
	InsertState(tuples []relation.Tuple)
	// EvictBuckets discards the state of the given buckets.
	EvictBuckets(buckets []int32)
}

// joinPartitions is the number of partitions of a build table. A routing
// bucket maps to partition bucket%joinPartitions, so an R1 eviction of a
// bucket touches exactly one partition, and a partition is the unit the
// grace-hash spill moves to disk.
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

// link appends entry idx to the chain of hash h and returns the chain's
// previous tail, whose next link the caller points at idx; -1 when idx
// starts a new chain.
func link(chains map[uint64]chainRef, h uint64, idx int32) (prev int32) {
	c, ok := chains[h]
	if !ok {
		chains[h] = chainRef{head: idx, tail: idx, n: 1}
		return -1
	}
	prev = c.tail
	c.tail, c.n = idx, c.n+1
	chains[h] = c
	return prev
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
	// entries is the partition's build-tuple arena, pre-sized from the
	// optimiser's cardinality estimate: inserting appends here instead of
	// growing one slice per distinct key.
	entries []joinEntry
	chains  map[uint64]chainRef // hash → chain (bucket derivable from hash)
	held    int

	// Grace-hash spill state (joins under a memory budget; see spill.go).
	// Once spilled, the partition's build tuples live in a build run, probe
	// tuples route to a probe run, and matching is deferred to the
	// post-probe drain.
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

// joinState is a HashJoin's build-side hash table. It is the unit the R1
// protocol targets: evict/replay address buckets here. Like the rest of the
// join it belongs to the fragment's driver goroutine.
type joinState struct {
	ready   bool         // from Open to Close; R1 calls outside find no table
	ctx     *ExecContext // the driver's context
	buckets int

	// insertMeter charges replay inserts. It is the driver's, as ctx.Meter
	// is, but no M1 window reads it.
	insertMeter *vtime.Meter
	mon         opMonitor
	parts       [joinPartitions]joinPart

	spillEnv
	spillErr error // first spill I/O failure; surfaced before completion
}

func (s *joinState) init(ctx *ExecContext, est int) {
	s.ctx = ctx
	s.buckets = ctx.Buckets
	if s.buckets <= 0 {
		s.buckets = DefaultBuckets
	}
	s.insertMeter = vtime.NewMeter(ctx.Clock)
	s.mon = opMonitor{ctx: ctx}
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
	s.ready = true
}

func (s *joinState) part(b int32) *joinPart {
	return &s.parts[int(b)%joinPartitions]
}

// insertBatch adds build tuples to the table. The whole batch is reserved
// in one call and what the table does not hold in memory is released in one
// call after it; the breach check runs once per batch, so the bounded
// over-shoot of a batch just means the victim partition spills marginally
// later.
func (s *joinState) insertBatch(keys []int, ts []relation.Tuple) {
	if s.spillOn {
		var reserve int64
		for _, t := range ts {
			reserve += spillEntryBytes(t)
		}
		s.mem.Reserve(reserve)
	}
	var unheld int64
	for _, t := range ts {
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
// it to the build run.
func (s *joinState) insertOne(keys []int, t relation.Tuple) (unheld int64) {
	h := t.Hash(keys)
	b := int32(h % uint64(s.buckets))
	p := s.part(b)
	var reserve int64
	if s.spillOn {
		reserve = spillEntryBytes(t)
	}
	if p.spilled {
		s.appendSpilled(p, b, t)
		return reserve
	}
	idx := int32(len(p.entries))
	p.entries = append(p.entries, joinEntry{t: t, next: -1})
	if prev := link(p.chains, h, idx); prev >= 0 {
		p.entries[prev].next = idx
	}
	p.held++
	p.bytes += reserve
	return 0
}

// release frees the table, its spill runs and its reservations. R1 calls
// arriving afterwards (a replay racing query completion) find no table.
func (s *joinState) release() {
	if !s.ready {
		return
	}
	s.ready = false
	for i := range s.parts {
		p := &s.parts[i]
		if p.build != nil {
			_ = p.build.Close()
			_ = p.probe.Close()
		}
		if p.spilled {
			_ = s.backend.Remove(p.buildName)
			_ = s.backend.Remove(p.probeName)
		}
		if p.bytes > 0 {
			s.mem.Release(p.bytes)
		}
		*p = joinPart{}
	}
}

// HashJoin is the partitioned equi-join: it drains its build input into a
// bucketed hash table during Open, then streams the probe input, emitting
// one tuple per match: the build tuple followed by the probe tuple, or the
// Out columns of that when a projection is fused in. Each clone of the join
// holds only the buckets the current distribution policy routes to it;
// moving a bucket to another clone moves the corresponding state. A join
// runs on its fragment's one driver goroutine, R1 state calls included.
type HashJoin struct {
	Build, Probe         Iterator
	BuildKeys, ProbeKeys []int
	// BuildEst is the optimiser's build-side cardinality estimate; when
	// positive, the table's partition arenas and chain maps are pre-sized
	// for it instead of growing on demand.
	BuildEst int
	// Out, when set, is a projection fused into the join: the ordinals over
	// build ++ probe each match emits, in order, charged ProjectMs per
	// emitted tuple exactly as a Project over the join would be. The
	// concatenated match is never built.
	Out []int

	ctx *ExecContext
	st  joinState

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

// Open implements Iterator: it drains the build input batch-at-a-time
// (clamped to the M1 window so build-phase monitoring cadence is unchanged)
// into the table, then opens the probe side.
func (j *HashJoin) Open(ctx *ExecContext) error {
	j.ctx = ctx
	j.st.init(ctx, j.BuildEst)
	j.in = relation.GetBatch()
	if err := j.openBuild(ctx); err != nil {
		return err
	}
	return j.Probe.Open(ctx)
}

func (j *HashJoin) openBuild(ctx *ExecContext) error {
	s := &j.st
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
		s.insertBatch(j.BuildKeys, j.in.Tuples)
		// The build phase produces nothing, so the driver's M1 emission is
		// silent; emit operator-level events so the Diagnoser can already
		// rebalance a perturbed build.
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

// takePending moves carried-over matches into dst until it is full.
func (j *HashJoin) takePending(dst *relation.Batch) {
	for j.pendHead < len(j.pending) && !dst.Full() {
		dst.Append(j.pending[j.pendHead])
		j.pendHead++
	}
	if j.pendHead == len(j.pending) {
		j.pending, j.pendHead = j.pending[:0], 0
	}
}

func (j *HashJoin) nextBatch(dst *relation.Batch) (int, error) {
	dst.Rewind()
	j.takePending(dst)
	j.in.SetLimit(dst.Cap())
	for dst.Len() == 0 {
		n, err := j.Probe.NextBatch(j.in)
		if err != nil {
			return dst.Len(), err
		}
		if n == 0 {
			if j.st.spillOn {
				more, derr := j.drainPending()
				if derr != nil {
					return dst.Len(), derr
				}
				if more {
					j.takePending(dst)
					continue
				}
			}
			return dst.Len(), nil
		}
		j.ctx.chargeN(j.ctx.Costs.JoinProbeMs, n)
		j.probe(j.in.Tuples, dst)
	}
	return dst.Len(), nil
}

// probe matches one probe batch: matches fill dst and overflow to pending,
// and probe tuples of spilled partitions are deferred to their probe runs.
func (j *HashJoin) probe(ts []relation.Tuple, dst *relation.Batch) {
	s := &j.st
	for _, t := range ts {
		h := t.Hash(j.ProbeKeys)
		p := s.part(int32(h % uint64(s.buckets)))
		if p.spilled {
			s.routeProbe(p, t)
			continue
		}
		c, ok := p.chains[h]
		if !ok {
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
	}
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

// Close implements Iterator: it releases the table, its spill runs and its
// reserved bytes.
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
	j.st.release()
	if errB != nil {
		return errB
	}
	return errP
}

// InsertState implements StateTarget: replayed build tuples recreate bucket
// state on this clone, at the build cost, on the insert meter. A closed join
// ignores them.
func (j *HashJoin) InsertState(tuples []relation.Tuple) {
	s := &j.st
	if !s.ready {
		return
	}
	s.insertMeter.Charge(j.ctx.Node.PerturbedCostN(j.ctx.Costs.JoinBuildMs, len(tuples)))
	s.insertBatch(j.BuildKeys, tuples)
}

// EvictBuckets implements StateTarget. A closed join ignores it.
func (j *HashJoin) EvictBuckets(buckets []int32) {
	s := &j.st
	if !s.ready {
		return
	}
	// Eviction unlinks the bucket's chains; the arena entries behind them
	// stay allocated until the query releases the table. That is deliberate:
	// evictions are rare (one R1 adaptation each) and the arena's bound is
	// the build side's size either way.
	for _, b := range buckets {
		p := s.part(b)
		if p.spilled {
			// The bucket's tuples live in the build run; record the kill
			// window instead of unlinking (see spill.go).
			p.evicts = append(p.evicts, spillEvict{bucket: b, buildIdx: p.buildCount, probeIdx: p.probeCount})
			p.held -= int(p.spillLive[b])
			delete(p.spillLive, b)
			continue
		}
		p.held -= unlinkBucket(p.chains, b, s.buckets)
	}
}

// StateSize reports the number of build tuples the table holds.
func (j *HashJoin) StateSize() int {
	s := &j.st
	held := 0
	for i := range s.parts {
		held += s.parts[i].held
	}
	return held
}

// BucketOf reports the bucket a build-side tuple belongs to; tests use it
// to cross-check alignment with the distribution policy.
func (j *HashJoin) BucketOf(t relation.Tuple) (int32, error) {
	s := &j.st
	if !s.ready {
		return 0, fmt.Errorf("engine: join not opened")
	}
	return int32(t.Hash(j.BuildKeys) % uint64(s.buckets)), nil
}

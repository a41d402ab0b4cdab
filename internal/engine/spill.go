package engine

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/storage"
)

// Grace-hash spilling for the hash join (paper-era memory governance, see
// DESIGN.md §5i). When a query runs under a memory budget with a spill
// backend configured, the build table accounts the bytes it holds.
// On a breach the largest in-memory partition is spilled wholesale: its
// entries move to a build run, and probe tuples hashing into it are deferred
// to a probe run instead of being matched inline. After the probe input is
// exhausted the join drains each (build run, probe run) pair: the build run
// is reloaded under the same budget — re-partitioned fan-ways and re-queued
// if it alone breaches — and the deferred probe tuples are matched against
// it, preserving the exact multiset of matches the in-memory join produces.
// Victim selection and eviction run on the driver under the table's lock,
// inside the build or probe batch that breached. The drain runs on the
// driver too, once its probe input is exhausted: it seals the spilled runs
// and works through its own list of (build, probe) pairs depth-first, a
// re-partitioned pair's sub-pairs going to the front.
//
// Correctness under R1 (retrospective eviction + replay) relies on two
// watermarks carried in run records:
//
//   - a build record is [Int(wm), Int(idx)] ++ tuple, where wm is the
//     partition's probe-run length when the build tuple was appended (0 for
//     tuples present before the spill) and idx its append position. A build
//     tuple may only match probe tuples with j >= wm — exactly the probe
//     tuples an in-memory table would have shown it to, since replayed
//     inserts only meet probe tuples processed after the insert.
//   - a probe record is [Int(j)] ++ tuple, its position in the probe run.
//
// An R1 eviction of bucket b while the partition is spilled appends an event
// {b, buildIdx, probeIdx}: it kills matches between build tuples already in
// the run (idx < buildIdx) and probe tuples not yet routed (j >= probeIdx),
// mirroring what eviction does to an in-memory bucket — earlier probe tuples
// already "saw" the state, later ones must not. Evictions recorded after the
// drain seals the runs carry probeIdx == the final probe count and thus kill
// nothing, so the snapshot taken at drain start is complete.
const (
	// spillFan is the re-partitioning fan-out when a reloaded build run
	// still breaches the budget.
	spillFan = 8
	// maxSpillDepth caps recursive re-partitioning; beyond it the pair is
	// processed in memory regardless of the budget (heavy duplicate keys
	// cannot be split by their own hash).
	maxSpillDepth = 6
)

// spillEntryBytes is the accounted in-memory footprint of one build tuple:
// its wire size plus arena/chain bookkeeping overhead.
func spillEntryBytes(t relation.Tuple) int64 {
	return int64(t.ByteSize()) + 48
}

// spillMetrics bundles the process-wide spill counters.
type spillMetrics struct {
	bytes    *obs.Counter
	parts    *obs.Counter
	restarts *obs.Counter
}

func newSpillMetrics() spillMetrics {
	o := obs.Default()
	return spillMetrics{
		bytes:    o.Counter(obs.MSpillBytes),
		parts:    o.Counter(obs.MSpillPartitions),
		restarts: o.Counter(obs.MSpillRestarts),
	}
}

// spillEnv is a stateful operator's spill wiring, decided once when its
// state initialises: spillOn means a budget and a backend are both
// configured. rec and scratch are the operator's one scratch record, which
// every run append reuses (RunWriter.Append encodes it at once), and the
// one arena its transient run readers decode into (see openScratchRun).
type spillEnv struct {
	spillOn bool
	mem     *storage.Budget
	backend storage.Backend
	base    string // run-name namespace for this operator's runs
	met     spillMetrics
	rec     relation.Tuple
	scratch relation.Arena
}

// newSpillEnv wires op ("join", "agg") for spilling under ctx, or records
// that its state grows ungoverned.
func newSpillEnv(ctx *ExecContext, op string) spillEnv {
	if !ctx.spillEnabled() {
		recordUngoverned(ctx, op)
		return spillEnv{}
	}
	return spillEnv{
		spillOn: true, mem: ctx.Mem,
		backend: ctx.Spill, base: ctx.spillRunName(op), met: newSpillMetrics(),
	}
}

// recordSpillEvent puts one spill action on the adaptation timeline.
func recordSpillEvent(ctx *ExecContext, detail string, tuples int64) {
	obs.Default().Record(obs.Event{
		AtMs:     ctx.Clock.NowMs(),
		Kind:     obs.KindSpill,
		Fragment: ctx.Fragment,
		Tuples:   tuples,
		Detail:   detail,
	})
}

// spillEvent records a spill action against the join's context.
func (s *joinState) spillEvent(detail string, tuples int64) {
	recordSpillEvent(s.ctx, detail, tuples)
}

// recordUngoverned traces the one remaining ungoverned path: a stateful
// operator initialising under a memory budget with no spill backend grows
// outside the budget. Instead of doing so silently it counts
// mem_ungoverned_total and leaves a timeline event, so an operator staring
// at a breached gauge can see which fragment escaped governance and why.
func recordUngoverned(ctx *ExecContext, op string) {
	if ctx.Mem == nil || ctx.Spill != nil {
		return
	}
	obs.Default().Counter(obs.MMemUngoverned).Inc()
	obs.Default().Record(obs.Event{
		AtMs:     ctx.Clock.NowMs(),
		Kind:     obs.KindSpill,
		Fragment: ctx.Fragment,
		Detail:   op + ": memory budget set but no spill backend; state grows ungoverned",
	})
}

// spillEvict is one R1 bucket eviction recorded while a partition was
// spilled; see the package comment above for its kill semantics.
type spillEvict struct {
	bucket   int32
	buildIdx int64
	probeIdx int64
}

// setSpillErr records the first spill I/O failure.
func (s *joinState) setSpillErr(err error) {
	if s.spillErr == nil {
		s.spillErr = err
	}
}

// appendSpilled routes a build tuple (insert or R1 replay) into a spilled
// partition's build run. After the drain has sealed the runs the tuple is
// counted but dropped: its watermark would be the final probe count, so it
// could never match a deferred probe tuple.
func (s *joinState) appendSpilled(p *joinPart, b int32, t relation.Tuple) {
	p.held++
	p.spillLive[b]++
	if p.build == nil {
		return
	}
	s.rec = append(append(s.rec[:0], relation.Int(p.probeCount), relation.Int(p.buildCount)), t...)
	if err := p.build.Append(s.rec); err != nil {
		s.setSpillErr(fmt.Errorf("engine: spill build append: %w", err))
		return
	}
	p.buildCount++
	s.met.bytes.Add(int64(t.ByteSize()))
}

// routeProbe defers a probe tuple of a spilled partition to its probe run.
func (s *joinState) routeProbe(p *joinPart, t relation.Tuple) {
	if p.probe == nil {
		return
	}
	s.rec = append(append(s.rec[:0], relation.Int(p.probeCount)), t...)
	if err := p.probe.Append(s.rec); err != nil {
		s.setSpillErr(fmt.Errorf("engine: spill probe append: %w", err))
		return
	}
	p.probeCount++
	s.met.bytes.Add(int64(t.ByteSize()))
}

// spillVictims spills whole partitions, largest first, until the budget is
// met or nothing spillable remains.
func (s *joinState) spillVictims() {
	for s.mem.Over() {
		vi, vb := -1, int64(0)
		for i := range s.parts {
			if p := &s.parts[i]; !p.spilled && p.bytes > vb {
				vi, vb = i, p.bytes
			}
		}
		if vi < 0 || !s.spillPartition(vi) {
			return
		}
	}
}

// spillPartition moves partition i's in-memory entries to a build run and
// marks it spilled, releasing the accounted bytes.
func (s *joinState) spillPartition(i int) bool {
	p := &s.parts[i]
	p.buildName = fmt.Sprintf("%s-p%d-build", s.base, i)
	p.probeName = fmt.Sprintf("%s-p%d-probe", s.base, i)
	bw, err := s.backend.Create(p.buildName)
	if err != nil {
		s.setSpillErr(fmt.Errorf("engine: spill create: %w", err))
		return false
	}
	pw, err := s.backend.Create(p.probeName)
	if err != nil {
		s.setSpillErr(fmt.Errorf("engine: spill create: %w", err))
		_ = bw.Close()
		_ = s.backend.Remove(p.buildName)
		return false
	}
	p.build, p.probe = bw, pw
	p.spillLive = make(map[int32]int64)
	var moved int64
	// Entries are written chain by chain; order across chains is immaterial
	// (matching is per hash chain, and every pre-spill entry precedes every
	// post-spill append in build-index order, which is all eviction
	// filtering depends on).
	for h, c := range p.chains {
		b := int32(h % uint64(s.buckets))
		for e := c.head; e >= 0; e = p.entries[e].next {
			s.rec = append(append(s.rec[:0], relation.Int(0), relation.Int(p.buildCount)), p.entries[e].t...)
			if err := p.build.Append(s.rec); err != nil {
				s.setSpillErr(fmt.Errorf("engine: spill build append: %w", err))
			}
			p.buildCount++
			moved++
		}
		p.spillLive[b] += int64(c.n)
	}
	p.spilled = true
	p.chains = nil
	p.entries = nil
	s.mem.Release(p.bytes)
	s.met.bytes.Add(p.bytes)
	p.bytes = 0
	s.met.parts.Inc()
	s.spillEvent(fmt.Sprintf("join partition %d -> %s", i, p.buildName), moved)
	return true
}

// spillEntry is one reloaded build tuple in the drain table. Like the join's
// partitions, the table chains entries of one hash in load order.
type spillEntry struct {
	t    relation.Tuple
	wm   int64 // first probe index this entry may match
	idx  int64 // build-run position, for eviction filtering
	next int32 // index of the next entry in the chain; -1 ends it
}

// spillPair is one (build run, probe run) pair awaiting drain.
type spillPair struct {
	build, probe string
	part         int
	depth        int
	evicts       []spillEvict
}

// joinSpillDrain matches deferred probe tuples after the streaming probe
// phase: it reloads one build run at a time into an in-memory table (under
// the budget, re-partitioning on breach) and streams the paired probe run
// through it. pairs is the work left, drained front first. The table, entries
// chained from a hash-keyed map, is reused by every pair.
type joinSpillDrain struct {
	s *joinState
	j *HashJoin

	pairs      []spillPair
	entries    []spillEntry
	chains     map[uint64]chainRef
	tableBytes int64
	evicts     []spillEvict
	reader     *blockScan // the current pair's probe run
	active     bool
	cur        spillPair
	closed     bool
}

// sealRuns seals every spilled partition's runs and returns the pairs with
// deferred probe tuples; pairs nothing probed are removed outright. The
// driver runs it once its probe input is exhausted, so no probe tuple can
// arrive afterwards and the snapshot is complete. Build tuples may still
// arrive via R1 replay; they are counted but dropped, as their watermark
// (the final probe count) could never match a deferred probe tuple.
func (s *joinState) sealRuns() []spillPair {
	var pairs []spillPair
	for i := range s.parts {
		p := &s.parts[i]
		if !p.spilled {
			continue
		}
		if p.build != nil {
			if err := p.build.Close(); err != nil {
				s.setSpillErr(fmt.Errorf("engine: spill seal: %w", err))
			}
			if err := p.probe.Close(); err != nil {
				s.setSpillErr(fmt.Errorf("engine: spill seal: %w", err))
			}
			p.build, p.probe = nil, nil
		}
		if p.probeCount == 0 {
			_ = s.backend.Remove(p.buildName)
			_ = s.backend.Remove(p.probeName)
			continue
		}
		pairs = append(pairs, spillPair{
			build:  p.buildName,
			probe:  p.probeName,
			part:   i,
			evicts: append([]spillEvict(nil), p.evicts...),
		})
	}
	return pairs
}

func decodeBuildRec(rec relation.Tuple) (wm, idx int64, t relation.Tuple, err error) {
	if len(rec) < 2 || rec[0].Type() != relation.TInt || rec[1].Type() != relation.TInt {
		return 0, 0, nil, fmt.Errorf("engine: malformed spill build record")
	}
	return rec[0].AsInt(), rec[1].AsInt(), rec[2:], nil
}

func decodeProbeRec(rec relation.Tuple) (jdx int64, t relation.Tuple, err error) {
	if len(rec) < 1 || rec[0].Type() != relation.TInt {
		return 0, nil, fmt.Errorf("engine: malformed spill probe record")
	}
	return rec[0].AsInt(), rec[1:], nil
}

// evicted reports whether a (build idx, probe idx) match is killed by one of
// the bucket's recorded evictions.
func evicted(evicts []spillEvict, b int32, idx, jdx int64) bool {
	for _, ev := range evicts {
		if ev.bucket == b && idx < ev.buildIdx && jdx >= ev.probeIdx {
			return true
		}
	}
	return false
}

// load reloads pr's build run into the drain table and opens its probe run.
// If the reload alone breaches the budget the pair is re-partitioned
// spillFan ways and its sub-pairs queued first instead (d stays inactive).
func (d *joinSpillDrain) load(pr spillPair) error {
	s := d.s
	r, err := openRun(s.backend, pr.build) // a keeper: the table holds the records
	if err != nil {
		return fmt.Errorf("engine: spill reload: %w", err)
	}
	d.resetTable()
	if d.chains == nil {
		d.chains = make(map[uint64]chainRef)
	}
	for {
		rec, ok, rerr := r.nextTuple()
		if rerr != nil {
			_ = r.close()
			return rerr
		}
		if !ok {
			break
		}
		wm, idx, t, derr := decodeBuildRec(rec)
		if derr != nil {
			_ = r.close()
			return derr
		}
		h := t.Hash(d.j.BuildKeys)
		b := int32(h % uint64(s.buckets))
		// Entries only matchable at j >= wm that an eviction kills for all
		// such j are dead for the whole pair: drop them at load.
		if evicted(pr.evicts, b, idx, wm) {
			continue
		}
		sz := spillEntryBytes(t)
		d.tableBytes += sz
		s.mem.Reserve(sz)
		e := int32(len(d.entries))
		d.entries = append(d.entries, spillEntry{t: t, wm: wm, idx: idx, next: -1})
		if prev := link(d.chains, h, e); prev >= 0 {
			d.entries[prev].next = e
		}
		if s.mem.Over() && pr.depth < maxSpillDepth {
			_ = r.close()
			return d.repartition(pr)
		}
	}
	if err := r.close(); err != nil {
		return err
	}
	pj, err := openScratchRun(s.backend, pr.probe, &s.scratch)
	if err != nil {
		return fmt.Errorf("engine: spill reload: %w", err)
	}
	d.reader = pj
	d.evicts = pr.evicts
	d.cur = pr
	d.active = true
	return nil
}

// repartition splits pr's build and probe runs spillFan ways by a hash-bit
// slice untouched by bucket/partition selection and by shallower splits,
// then queues the sub-pairs in front of the remaining work, so the drain
// stays depth-first. On failure it removes every sub-run it created.
func (d *joinSpillDrain) repartition(pr spillPair) (err error) {
	s := d.s
	d.resetTable()
	shift := uint(40 + 3*pr.depth)
	base := strings.TrimSuffix(pr.build, "-build")
	buildNames, probeNames := subRunNames(base, spillRunSeq.Add(1))

	split := func(src string, metaLen int, keys []int, names *[spillFan]string) ([]storage.RunWriter, error) {
		ws := make([]storage.RunWriter, spillFan)
		for k := range ws {
			w, err := s.backend.Create(names[k])
			if err != nil {
				return ws, err
			}
			ws[k] = w
		}
		r, err := openScratchRun(s.backend, src, &s.scratch)
		if err != nil {
			return ws, err
		}
		defer r.close()
		for {
			rec, ok, rerr := r.nextTuple()
			if rerr != nil {
				return ws, rerr
			}
			if !ok {
				return ws, nil
			}
			if len(rec) <= metaLen {
				return ws, fmt.Errorf("engine: malformed spill record")
			}
			h := rec[metaLen:].Hash(keys)
			if err := ws[(h>>shift)&(spillFan-1)].Append(rec); err != nil {
				return ws, err
			}
		}
	}

	drop := func(ws []storage.RunWriter, names *[spillFan]string) {
		for k, w := range ws {
			if w != nil {
				_ = w.Close()
				_ = s.backend.Remove(names[k])
			}
		}
	}
	var bws, pws []storage.RunWriter
	defer func() {
		if err != nil {
			drop(bws, &buildNames)
			drop(pws, &probeNames)
		}
	}()
	if bws, err = split(pr.build, 2, d.j.BuildKeys, &buildNames); err != nil {
		return fmt.Errorf("engine: spill repartition: %w", err)
	}
	if pws, err = split(pr.probe, 1, d.j.ProbeKeys, &probeNames); err != nil {
		return fmt.Errorf("engine: spill repartition: %w", err)
	}
	var moved int64
	subs := make([]spillPair, 0, spillFan)
	for k := 0; k < spillFan; k++ {
		bn, pn := buildNames[k], probeNames[k]
		probeTuples := pws[k].Tuples()
		if err := bws[k].Close(); err != nil {
			return fmt.Errorf("engine: spill repartition: %w", err)
		}
		if err := pws[k].Close(); err != nil {
			return fmt.Errorf("engine: spill repartition: %w", err)
		}
		if probeTuples == 0 || bws[k].Tuples() == 0 {
			_ = s.backend.Remove(bn)
			_ = s.backend.Remove(pn)
			continue
		}
		moved += bws[k].Tuples()
		subs = append(subs, spillPair{build: bn, probe: pn, part: pr.part, depth: pr.depth + 1, evicts: pr.evicts})
	}
	_ = s.backend.Remove(pr.build)
	_ = s.backend.Remove(pr.probe)
	d.pairs = append(subs, d.pairs...)
	s.met.restarts.Inc()
	s.spillEvent(fmt.Sprintf("join repartition %s depth %d", base, pr.depth+1), moved)
	return nil
}

// subRunNames names one repartition's sub-runs, "<base>-r<seq>-s<k>-build"
// and "...-probe", as substrings of one string, so a restart allocates its
// names once rather than once per sub-run.
func subRunNames(base string, seq int64) (build, probe [spillFan]string) {
	var b strings.Builder
	b.Grow(2 * spillFan * (len(base) + 48))
	var num [20]byte
	name := func(k int, kind string) string {
		start := b.Len()
		b.WriteString(base)
		b.WriteString("-r")
		b.Write(strconv.AppendInt(num[:0], seq, 10))
		b.WriteString("-s")
		b.Write(strconv.AppendInt(num[:0], int64(k), 10))
		b.WriteString(kind)
		return b.String()[start:] // a Builder never rewrites bytes it handed out
	}
	for k := range build {
		build[k] = name(k, "-build")
	}
	for k := range probe {
		probe[k] = name(k, "-probe")
	}
	return build, probe
}

// finishPair releases the drained pair's table, reader and runs.
func (d *joinSpillDrain) finishPair() {
	if d.reader != nil {
		_ = d.reader.close()
		d.reader = nil
	}
	if d.active {
		_ = d.s.backend.Remove(d.cur.build)
		_ = d.s.backend.Remove(d.cur.probe)
	}
	d.resetTable()
	d.active = false
}

// resetTable empties the drain table for the next pair, keeping its storage,
// and releases its reservation.
func (d *joinSpillDrain) resetTable() {
	d.s.mem.Release(d.tableBytes)
	d.tableBytes = 0
	clear(d.entries)
	d.entries = d.entries[:0]
	clear(d.chains)
}

// close releases what the drain still holds, the runs of pairs a cancelled
// or failed query never drained included.
func (d *joinSpillDrain) close() {
	if d.closed {
		return
	}
	d.closed = true
	d.finishPair()
	for _, pr := range d.pairs {
		_ = d.s.backend.Remove(pr.build)
		_ = d.s.backend.Remove(pr.probe)
	}
	d.pairs = nil
}

// drainPending advances the spill drain until at least one deferred match
// sits in j.pending, returning false once every pair is exhausted. The first
// call seals the runs. No join cost is charged here: every probe tuple
// already paid JoinProbeMs when it was routed, and every build tuple
// JoinBuildMs when inserted — the drain is the deferred completion of work
// already accounted. A fused projection's cost is NextBatch's, as on the probe path.
func (j *HashJoin) drainPending() (bool, error) {
	s := &j.st
	if err := s.spillErr; err != nil {
		return false, err
	}
	if j.drain == nil {
		j.drain = &joinSpillDrain{s: s, j: j, pairs: s.sealRuns()}
	}
	d := j.drain
	for j.pendHead >= len(j.pending) {
		j.pending, j.pendHead = j.pending[:0], 0
		if err := s.spillErr; err != nil {
			return false, err
		}
		if !d.active {
			if len(d.pairs) == 0 {
				return false, nil
			}
			pr := d.pairs[0]
			d.pairs = d.pairs[1:]
			if err := d.load(pr); err != nil {
				_ = s.backend.Remove(pr.build)
				_ = s.backend.Remove(pr.probe)
				return false, err
			}
			continue // load may have re-partitioned; re-check
		}
		rec, ok, err := d.reader.nextTuple()
		if err != nil {
			return false, err
		}
		if !ok {
			d.finishPair()
			continue
		}
		jdx, t, err := decodeProbeRec(rec)
		if err != nil {
			return false, err
		}
		h := t.Hash(j.ProbeKeys)
		b := int32(h % uint64(s.buckets))
		c, ok := d.chains[h]
		if !ok {
			continue
		}
		for i := c.head; i >= 0; i = d.entries[i].next {
			e := &d.entries[i]
			if e.wm > jdx || !j.keysEqual(e.t, t) {
				continue
			}
			if len(d.evicts) > 0 && evicted(d.evicts, b, e.idx, jdx) {
				continue
			}
			j.pending = append(j.pending, j.emit(e.t, t))
		}
	}
	return true, nil
}

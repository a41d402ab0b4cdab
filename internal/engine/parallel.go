package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/logical"
	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/qerr"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/vtime"
)

// This file implements the fragment runtime's morsel-driven execution mode:
// the fragment's operator chain is replicated once per worker, the chains
// share their leaves (a scan handing out batch-sized morsels under a mutex,
// or the fragment's exchange Consumer handing each worker its own in-flight
// window), stateful operators share their partitioned state behind a build
// barrier, and every worker pushes its results into the sharded output
// exchange independently. The serial driver remains the default
// (Parallelism <= 1) and the only mode for fragments whose sink is
// order-sensitive (result sinks, sorts, limits).

// sharedSource hands morsels from one underlying input to all workerLeaf
// clones. Exactly one of src/cons is set: a scan-backed source serializes
// NextBatch calls under its mutex, a consumer-backed source just fans out
// per-worker handles (the Consumer is internally synchronized and keeps
// per-worker in-flight accounting). A scan over a stored table upgrades
// further: open() lifts the scan's BlockReader into blocks, and workers then
// claim whole blocks off the nextBlock counter and decode them privately,
// without ever taking mu (see workerLeaf.nextBlockBatch).
type sharedSource struct {
	ctx  *ExecContext // dedicated context; its meter takes scan charges
	src  Iterator
	cons *Consumer

	// blocks is set when src is a TableScan over a stored table: workers
	// bypass src entirely and share the reader, whose ReadBlock is safe
	// for concurrent use. nextBlock is the morsel dispenser — each
	// worker's block-range morsel is whatever indices it wins from the
	// counter, so disjoint ranges are scanned concurrently.
	blocks    storage.BlockReader
	nextBlock atomic.Int64

	mu      sync.Mutex
	opened  bool
	openErr error
	eos     bool

	// refs counts workerLeaf handles; the last leaf to close closes the
	// underlying input. Closing on the first leaf instead would race: a
	// worker that fails (or finishes) early tears the source down while a
	// sibling is still mid-read in NextBatch.
	refs      atomic.Int32
	closeOnce sync.Once
	closeErr  error
}

func newScanSource(src Iterator, ctx *ExecContext) *sharedSource {
	return &sharedSource{src: src, ctx: ctx}
}

func newConsumerSource(cons *Consumer, ctx *ExecContext) *sharedSource {
	return &sharedSource{cons: cons, ctx: ctx}
}

// open opens the underlying input once, under the source's own context, so
// its charges never race a worker's meter.
func (ss *sharedSource) open() error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if !ss.opened {
		ss.opened = true
		if ss.cons != nil {
			ss.openErr = ss.cons.Open(ss.ctx)
		} else {
			ss.openErr = ss.src.Open(ss.ctx)
			if ss.openErr == nil {
				if ts, ok := ss.src.(*TableScan); ok && ts.blocks != nil {
					// Stored scan: workers claim blocks directly. The
					// scan's own readahead never starts (it is lazy),
					// so the reader is the only shared state.
					ss.blocks = ts.blocks.reader()
				}
			}
		}
	}
	return ss.openErr
}

// release drops one leaf's reference; the last one closes the underlying
// input. closeOnce still guards the underlying Close so a leaf closed twice
// cannot re-close it.
func (ss *sharedSource) release() error {
	if ss.refs.Add(-1) > 0 {
		return nil
	}
	return ss.close()
}

func (ss *sharedSource) close() error {
	ss.closeOnce.Do(func() {
		if ss.cons != nil {
			ss.closeErr = ss.cons.Close()
		} else {
			ss.closeErr = ss.src.Close()
		}
	})
	return ss.closeErr
}

// workerLeaf is one worker's view of a sharedSource, placed at the leaf of
// the worker's operator chain.
type workerLeaf struct {
	ss     *sharedSource
	cw     *ConsumerWorker
	wctx   *ExecContext
	meter  *vtime.Meter
	closed bool

	// Block-morsel decode state (ss.blocks mode): each worker decodes its
	// claimed blocks on its own arena, reserving the block being decoded
	// against its own budget stripe for exactly that long.
	brest  []byte
	bbase  string // block payload's string aliasing (see blockScan.base)
	bleft  uint64
	bsize  int64 // reservation held for the block being decoded
	bsizes []int // encoded sizes of the last batch's tuples (see blockScan.fill)
	barena relation.Arena
	bcosts []float64
	bmet   scanMetrics
}

// newWorkerLeaf hands out one worker's reference on a shared source.
func newWorkerLeaf(ss *sharedSource) *workerLeaf {
	ss.refs.Add(1)
	return &workerLeaf{ss: ss}
}

// Open implements Iterator.
func (l *workerLeaf) Open(ctx *ExecContext) error {
	l.wctx = ctx
	l.meter = ctx.Meter
	if err := l.ss.open(); err != nil {
		return err
	}
	if l.ss.cons != nil && l.cw == nil {
		l.cw = l.ss.cons.NewWorker()
	}
	if l.ss.blocks != nil {
		l.bmet = newScanMetrics()
	}
	return nil
}

// NextBatch implements Iterator: it fetches this worker's next morsel.
// In consumer mode the worker's previous morsel is finished first, with no
// locks held — finishing releases the flow gate and may transmit checkpoint
// acks, which can park on a paused producer's barrier, so it must never run
// inside the consumer's own lock.
func (l *workerLeaf) NextBatch(dst *relation.Batch) (int, error) {
	if l.cw != nil {
		l.cw.Finish()
		return l.ss.cons.NextBatchFor(l.cw, dst, l.meter)
	}
	if l.ss.blocks != nil {
		return l.nextBlockBatch(dst)
	}
	ss := l.ss
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.eos {
		dst.Rewind()
		return 0, nil
	}
	n, err := ss.src.NextBatch(dst)
	if err == nil && n == 0 {
		ss.eos = true
	}
	return n, err
}

// nextBlockBatch fills dst from the worker's block-morsel stream: finish
// the current block, claim the next index off the shared counter, reserve
// it, read it through the shared reader, and decode lock-free on the
// worker's own arena. Scan costs are charged to the worker's meter, so the
// fragment's monitored cost totals match the serial driver's.
func (l *workerLeaf) nextBlockBatch(dst *relation.Batch) (int, error) {
	dst.Rewind()
	l.bsizes = l.bsizes[:0]
	needSizes := l.wctx.Costs.ScanByteMs != 0
	ss := l.ss
	for !dst.Full() {
		if l.bleft == 0 {
			if l.bsize > 0 {
				l.wctx.memAcct().Release(l.bsize)
				l.bsize = 0
			}
			i := int(ss.nextBlock.Add(1) - 1)
			if i >= ss.blocks.Blocks() {
				break
			}
			size := int64(ss.blocks.BlockSize(i))
			l.wctx.memAcct().Reserve(size)
			l.bsize = size
			// Fresh buffer per block: decoded strings alias it via
			// blockString, so it must never be written again.
			data, err := ss.blocks.ReadBlock(i, nil)
			l.bmet.blocksRead.Inc()
			if err != nil {
				l.wctx.memAcct().Release(l.bsize)
				l.bsize = 0
				return dst.Len(), err
			}
			n, rest, err := relation.TupleCount(data)
			if err != nil {
				l.wctx.memAcct().Release(l.bsize)
				l.bsize = 0
				return dst.Len(), qerr.Storage("scan block", err)
			}
			l.bleft, l.brest = n, rest
			l.bbase = blockString(rest)
			continue
		}
		var sizes []int
		if needSizes {
			if l.bsizes == nil {
				l.bsizes = make([]int, 0, dst.Cap())
			}
			sizes = l.bsizes
		}
		var err error
		l.brest, l.bleft, sizes, err = relation.DecodeTuplesShared(&l.barena, l.bbase, l.brest, l.bleft, dst, sizes)
		if err != nil {
			return dst.Len(), qerr.Storage("scan tuple", err)
		}
		if needSizes {
			l.bsizes = sizes
		}
	}
	chargeScanBatch(l.wctx, dst.Tuples, l.bsizes, &l.bcosts)
	return dst.Len(), nil
}

// Close implements Iterator: it finishes the worker's outstanding morsel and
// drops this worker's reference; the last sibling to close closes the
// underlying input.
func (l *workerLeaf) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	if l.cw != nil {
		l.cw.Finish()
	}
	if l.bsize > 0 {
		l.wctx.memAcct().Release(l.bsize)
		l.bsize = 0
	}
	return l.ss.release()
}

// parallelOK reports whether the fragment may run under the worker pool:
// its output must be an exchange (producers are order-insensitive across
// workers; a result sink is not) and its chain must not contain an
// order-sensitive operator.
func (r *FragmentRuntime) parallelOK() bool {
	return r.producer != nil && specParallelOK(r.cfg.Fragment.Root)
}

func specParallelOK(s *physical.OpSpec) bool {
	switch s.Kind {
	case physical.KSort, physical.KLimit:
		return false
	}
	for _, c := range s.Children {
		if !specParallelOK(c) {
			return false
		}
	}
	return true
}

// buildWorkerChain mirrors compile() for one worker: stateless operators are
// fresh per worker, stateful operators are clones sharing the compiled
// instance's state, and leaves attach to the shared sources in leaves.
func (r *FragmentRuntime) buildWorkerChain(spec *physical.OpSpec, leaves map[*physical.OpSpec]*sharedSource) (Iterator, error) {
	switch spec.Kind {
	case physical.KScan:
		return newWorkerLeaf(leaves[spec]), nil

	case physical.KFilter:
		child, err := r.buildWorkerChain(spec.Children[0], leaves)
		if err != nil {
			return nil, err
		}
		pred, err := logical.CompilePredicate(spec.Pred, spec.Children[0].OutSchema())
		if err != nil {
			return nil, err
		}
		return &Select{Child: child, Pred: pred}, nil

	case physical.KProject:
		child, err := r.buildWorkerChain(spec.Children[0], leaves)
		if err != nil {
			return nil, err
		}
		return &Project{Child: child, Ords: spec.Ords}, nil

	case physical.KOpCall:
		child, err := r.buildWorkerChain(spec.Children[0], leaves)
		if err != nil {
			return nil, err
		}
		return &OperationCall{Fn: spec.Fn, ArgOrds: spec.ArgOrds, Child: child}, nil

	case physical.KJoin:
		build, err := r.buildWorkerChain(spec.Children[0], leaves)
		if err != nil {
			return nil, err
		}
		probe, err := r.buildWorkerChain(spec.Children[1], leaves)
		if err != nil {
			return nil, err
		}
		base := r.joinBySpec[spec]
		if base == nil {
			return nil, fmt.Errorf("engine: no compiled join for spec")
		}
		return base.WorkerClone(build, probe), nil

	case physical.KAggregate:
		child, err := r.buildWorkerChain(spec.Children[0], leaves)
		if err != nil {
			return nil, err
		}
		base := r.aggBySpec[spec]
		if base == nil {
			return nil, fmt.Errorf("engine: no compiled aggregate for spec")
		}
		return base.WorkerClone(child), nil

	case physical.KConsume:
		return newWorkerLeaf(leaves[spec]), nil

	default:
		return nil, fmt.Errorf("engine: operator kind %v not parallel-eligible", spec.Kind)
	}
}

// collectLeaves creates one sharedSource per leaf spec, each with its own
// worker-style context.
func (r *FragmentRuntime) collectLeaves(spec *physical.OpSpec, ectx *ExecContext, leaves map[*physical.OpSpec]*sharedSource) error {
	switch spec.Kind {
	case physical.KScan:
		leaves[spec] = newScanSource(&TableScan{Table: spec.Table}, ectx.workerContext())
	case physical.KConsume:
		c := r.consumers[spec.Exchange]
		if c == nil {
			return fmt.Errorf("engine: no consumer for exchange %s", spec.Exchange)
		}
		leaves[spec] = newConsumerSource(c, ectx.workerContext())
	}
	for _, child := range spec.Children {
		if err := r.collectLeaves(child, ectx, leaves); err != nil {
			return err
		}
	}
	return nil
}

// parMonitor merges the workers' per-meter cost windows into the fragment's
// M1 event stream: same event contents as the serial driver (cost and wait
// per tuple over the window, cumulative selectivity and produced count),
// with windows closing on the first batch that crosses the MonitorEvery
// boundary. Emission happens under the lock so Produced stays monotonic.
type parMonitor struct {
	r    *FragmentRuntime
	ectx *ExecContext

	mu       sync.Mutex
	meters   []*vtime.Meter
	offsets  []float64
	count    int64
	lastN    int64
	lastCost float64
	lastWait float64
}

func newParMonitor(r *FragmentRuntime, ectx *ExecContext) *parMonitor {
	return &parMonitor{r: r, ectx: ectx, lastWait: r.waitMs()}
}

// track registers a meter whose charges from this point on belong to the
// fragment's processing cost. Workers register after opening their chain, so
// startup and build-phase charges stay outside the windows — exactly where
// the serial driver's baseline puts them.
func (pm *parMonitor) track(m *vtime.Meter) {
	pm.mu.Lock()
	pm.meters = append(pm.meters, m)
	pm.offsets = append(pm.offsets, m.ChargedMs())
	pm.mu.Unlock()
}

func (pm *parMonitor) chargedLocked() float64 {
	total := 0.0
	for i, m := range pm.meters {
		total += m.ChargedMs() - pm.offsets[i]
	}
	return total
}

// produced records n emitted tuples and closes the M1 window if it filled.
func (pm *parMonitor) produced(n int) {
	ectx := pm.ectx
	if ectx.Monitor == nil || ectx.MonitorEvery <= 0 {
		return
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	pm.count += int64(n)
	interval := pm.count - pm.lastN
	if interval < int64(ectx.MonitorEvery) {
		return
	}
	charged := pm.chargedLocked()
	wait := pm.r.waitMs()
	consumed := pm.r.consumedTuples()
	sel := 1.0
	if consumed > 0 {
		sel = float64(pm.count) / float64(consumed)
	}
	ectx.Monitor.EmitM1(M1Event{
		Fragment:       ectx.Fragment,
		Instance:       ectx.Instance,
		Node:           pm.r.cfg.Node,
		CostPerTupleMs: (charged - pm.lastCost) / float64(interval),
		WaitPerTupleMs: (wait - pm.lastWait) / float64(interval),
		Selectivity:    sel,
		Produced:       pm.count,
	})
	pm.lastN, pm.lastCost, pm.lastWait = pm.count, charged, wait
}

// abortBarriers releases workers blocked on a stateful operator's build
// barrier when a sibling failed before arriving there.
func (r *FragmentRuntime) abortBarriers() {
	for _, j := range r.joinBySpec {
		j.Abort()
	}
	for _, a := range r.aggBySpec {
		a.Abort()
	}
}

// runParallel is the morsel-driven counterpart of the serial Run body: it
// builds one operator chain per worker over shared leaves and shared
// operator state, runs them concurrently, and lets each worker push its
// batches into the sharded producer independently. Startup costs have
// already been charged by Run.
func (r *FragmentRuntime) runParallel(ctx context.Context, workers int) error {
	ectx := r.cfg.Ctx
	leaves := make(map[*physical.OpSpec]*sharedSource)
	if err := r.collectLeaves(r.cfg.Fragment.Root, ectx, leaves); err != nil {
		return r.fail(err)
	}
	chains := make([]Iterator, workers)
	wctxs := make([]*ExecContext, workers)
	for w := range chains {
		chain, err := r.buildWorkerChain(r.cfg.Fragment.Root, leaves)
		if err != nil {
			// Chains already built hold clone references on shared operator
			// state; close them so the last reference frees the state.
			for _, c := range chains[:w] {
				_ = c.Close()
			}
			return r.fail(err)
		}
		chains[w] = chain
		wctxs[w] = ectx.workerContext()
		// Each worker accounts memory through its own budget stripe, so
		// per-tuple reservations at full width never contend on one counter.
		wctxs[w].MemAcct = ectx.Mem.Acct(w)
	}
	for _, j := range r.joinBySpec {
		j.SetWorkers(workers)
	}
	for _, a := range r.aggBySpec {
		a.SetWorkers(workers)
	}

	o := obs.Default()
	gauge := o.Gauge(obs.MEngineParallelWorkers)
	morselMs := o.Histogram(obs.MEngineMorselMs, obs.DefBucketsLatencyMs)
	gauge.Add(int64(workers))
	defer gauge.Add(int64(-workers))

	if ctx.Done() != nil {
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-ctx.Done():
				r.interrupt(qerr.FromContext(ctx))
				r.abortBarriers()
			case <-done:
			}
		}()
	}

	pm := newParMonitor(r, ectx)
	for _, ss := range leaves {
		if ss.src != nil {
			pm.track(ss.ctx.Meter)
		}
	}

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	failWorker := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			r.fail(err)
			// Unblock siblings parked in consumer waits, producer barriers,
			// or a build barrier the failed worker never reached.
			r.interrupt(err)
			r.abortBarriers()
		})
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(chain Iterator, wctx *ExecContext) {
			defer wg.Done()
			if err := r.workerLoop(ctx, chain, wctx, pm, morselMs); err != nil {
				failWorker(err)
			}
		}(chains[w], wctxs[w])
	}
	wg.Wait()

	if ctx.Err() != nil {
		return r.fail(qerr.FromContext(ctx))
	}
	if firstErr != nil {
		return firstErr
	}
	if err := r.producer.Close(); err != nil {
		return r.fail(err)
	}
	ectx.Meter.Flush()
	return nil
}

// workerLoop drives one worker's chain: open, pull morsels, send each to the
// output exchange charging this worker's meter, close.
func (r *FragmentRuntime) workerLoop(ctx context.Context, chain Iterator, wctx *ExecContext, pm *parMonitor, morselMs *obs.Histogram) error {
	if err := chain.Open(wctx); err != nil {
		_ = chain.Close()
		return err
	}
	pm.track(wctx.Meter)
	batch := relation.GetBatch()
	batch.SetLimit(batchLimit(wctx, relation.DefaultBatchSize))
	defer batch.Release()
	defer func() { _ = chain.Close() }()
	for {
		if ctx.Err() != nil {
			return nil // the driver reports the cancellation once
		}
		start := wctx.Clock.NowMs()
		n, err := chain.NextBatch(batch)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		if err := r.producer.SendBatchMeter(batch.Tuples, wctx.Meter); err != nil {
			return err
		}
		morselMs.Observe(wctx.Clock.NowMs() - start)
		r.mu.Lock()
		r.produced += int64(n)
		r.mu.Unlock()
		r.obsProduced.Add(int64(n))
		r.obsBatchSize.Observe(float64(n))
		pm.produced(n)
	}
}

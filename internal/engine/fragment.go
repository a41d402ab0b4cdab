package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/logical"
	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/qerr"
	"repro/internal/relation"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// Sink receives the top fragment's output rows (the query result stream the
// GDQS hands back to the client).
type Sink interface {
	Send(relation.Tuple) error
	Close() error
}

// ServiceName returns the transport service under which a fragment instance
// registers.
func ServiceName(fragment string, instance int) string {
	return fmt.Sprintf("frag/%s#%d", fragment, instance)
}

// RuntimeConfig assembles a fragment instance.
type RuntimeConfig struct {
	Plan     *physical.Plan
	Fragment *physical.FragmentSpec
	Instance int
	Ctx      *ExecContext
	Tr       transport.Transport
	Node     simnet.NodeID
	// Sink receives results; required iff the fragment has no output
	// exchange.
	Sink Sink
	// BufferTuples and CheckpointEvery tune the output exchange; zero
	// selects the defaults.
	BufferTuples    int
	CheckpointEvery int
	// FT enables elastic crash recovery for this instance: consumers
	// acknowledge processed prefixes inside node commit sections paired
	// with the flush of derived outputs, producers survive peer death by
	// parking the lost tuples in their recovery logs, and the driver runs
	// at width 1 (FragmentRuntime.width).
	FT bool
	// OnPeerDown is told when a flush discovers a dead peer (FT only).
	OnPeerDown func(simnet.NodeID)
	// Unlogged says nothing in the session can replay the instance's
	// exchanges: no Responder, no failover. Its output producer keeps no
	// recovery log and sends no checkpoints, so its consumers never ack,
	// and it refuses the control operations a log serves. FT overrides
	// it; the zero value keeps the logged protocol.
	Unlogged bool
}

// FragmentRuntime hosts one fragment instance inside a query evaluation
// service: the compiled operator tree, the exchange endpoints, and the
// driver goroutine. It stays registered on the transport after the driver
// completes so that retrospective adaptations can still recall, evict, and
// replay logged tuples until the query is torn down.
type FragmentRuntime struct {
	cfg  RuntimeConfig
	gate *flowGate

	root        Iterator
	consumers   map[string]*Consumer
	producer    *Producer
	stateTarget StateTarget
	service     string
	// unlogged is RuntimeConfig.Unlogged unless FT forces logging.
	unlogged bool

	mu       sync.Mutex
	err      error
	produced int64
	m1       m1Window

	// Registry handles, resolved once per instance; the driver's inner loop
	// touches them with one atomic op per batch.
	obsProduced  *obs.Counter
	obsBatchSize *obs.Histogram

	stopOnce sync.Once
}

// NewFragmentRuntime compiles the fragment's operator tree, wires its
// exchanges, and registers the instance's transport service. Call Run to
// start the driver and Stop to tear the instance down.
func NewFragmentRuntime(cfg RuntimeConfig) (*FragmentRuntime, error) {
	o := obs.Default()
	r := &FragmentRuntime{
		cfg:          cfg,
		gate:         newFlowGate(),
		consumers:    make(map[string]*Consumer),
		service:      "frag/" + cfg.Fragment.InstanceID(cfg.Instance),
		unlogged:     cfg.Unlogged && !cfg.FT,
		obsProduced:  o.Counter(obs.Label(obs.MEngineTuplesProduced, "fragment", cfg.Fragment.ID)),
		obsBatchSize: o.Histogram(obs.MEngineBatchSize, obs.DefBucketsSize),
	}
	root, err := r.compile(cfg.Fragment.Root)
	if err != nil {
		return nil, err
	}
	r.root = root

	if out := cfg.Fragment.Output; out != nil {
		consFrag := cfg.Plan.Fragment(out.ConsumerFragment)
		if consFrag == nil {
			return nil, fmt.Errorf("engine: exchange %s names unknown fragment %s", out.ID, out.ConsumerFragment)
		}
		policy, err := buildPolicy(out, consFrag, cfg.Ctx)
		if err != nil {
			return nil, err
		}
		r.producer = NewProducer(ProducerConfig{
			Exchange:         out.ID,
			Fragment:         cfg.Fragment.ID,
			Instance:         cfg.Instance,
			ConsumerFragment: consFrag.ID,
			Consumers:        instanceAddrs(consFrag),
			Stateful:         out.Stateful,
			Est:              int64(out.EstTuples),
			Policy:           policy,
			Transport:        cfg.Tr,
			Node:             cfg.Node,
			BufferTuples:     cfg.BufferTuples,
			CheckpointEvery:  cfg.CheckpointEvery,
			Unlogged:         r.unlogged,
		})
		r.producer.Bind(cfg.Ctx)
	} else if cfg.Sink == nil {
		return nil, fmt.Errorf("engine: top fragment %s needs a result sink", cfg.Fragment.ID)
	}

	if cfg.FT {
		r.wireFaultTolerance()
	}
	cfg.Tr.Register(cfg.Node, r.service, r.handle)
	return r, nil
}

// wireFaultTolerance arms the exactly-once recovery protocol on this
// instance. The output producer holds flushed buffers back whenever the
// fragment has an acknowledging (stateless) input, and each stateless
// consumer commits "flush held outputs, then ack processed inputs" as one
// crash-atomic section on the hosting node — so an input is acknowledged
// (and leaves the upstream recovery log) exactly when its derived outputs
// are durably downstream. The soundness of acking at consumer pull
// boundaries rests on an operator-tree invariant: every operator either
// emits the outputs of a pulled batch before returning, or holds them in a
// carry buffer that fully drains before the operator pulls its child again
// (HashJoin.pending is the one carry buffer today, and it drains first).
func (r *FragmentRuntime) wireFaultTolerance() {
	hasStatelessInput := false
	for _, c := range r.consumers {
		if !c.Stateful {
			hasStatelessInput = true
		}
	}
	node := r.cfg.Ctx.Node
	if r.producer != nil {
		holdback := hasStatelessInput && !r.producer.Stateful
		r.producer.SetFaultTolerant(holdback, r.cfg.OnPeerDown)
	}
	for _, c := range r.consumers {
		if c.Stateful {
			continue
		}
		consumer := c
		consumer.SetFaultTolerant(func(acks []ackItem) {
			// If the node died, the commit refuses to run: neither outputs
			// nor acks escape, and the inputs stay replayable upstream.
			node.Atomically(func() {
				if r.producer != nil {
					if err := r.producer.FlushHeld(); err != nil {
						r.fail(err)
						return
					}
				}
				for _, a := range acks {
					consumer.sendAck(a)
				}
			})
		})
	}
}

// buildPolicy instantiates the initial distribution policy of an exchange.
func buildPolicy(out *physical.ExchangeSpec, consumer *physical.FragmentSpec, ctx *ExecContext) (DistPolicy, error) {
	switch out.Policy {
	case physical.PolicyWeighted:
		return NewWeightedPolicy(consumer.InitialWeights)
	case physical.PolicyHash:
		buckets := ctx.Buckets
		if buckets <= 0 {
			buckets = DefaultBuckets
		}
		return NewHashPolicy(out.KeyOrds, buckets, consumer.InitialWeights)
	default:
		return nil, fmt.Errorf("engine: unknown policy %v on exchange %s", out.Policy, out.ID)
	}
}

// instanceAddrs lists the transport endpoints of a fragment's instances.
func instanceAddrs(f *physical.FragmentSpec) []Addr {
	addrs := make([]Addr, len(f.Instances))
	for i, node := range f.Instances {
		addrs[i] = Addr{Node: node, Service: "frag/" + f.InstanceID(i)}
	}
	return addrs
}

// compile lowers an operator spec to an iterator tree.
func (r *FragmentRuntime) compile(spec *physical.OpSpec) (Iterator, error) {
	switch spec.Kind {
	case physical.KScan:
		return &TableScan{Table: spec.Table}, nil

	case physical.KFilter, physical.KProject, physical.KOpCall:
		child, err := r.compile(spec.Children[0])
		if err != nil {
			return nil, err
		}
		return rowOp(spec, child)

	case physical.KJoin:
		build, err := r.compile(spec.Children[0])
		if err != nil {
			return nil, err
		}
		probe, err := r.compile(spec.Children[1])
		if err != nil {
			return nil, err
		}
		// The plan's estimate is the total across instances; this clone
		// pre-sizes for the share its initial weight routes to it. The table
		// grows on demand for what R1 hands it later, and for an instance
		// admitted mid-query, which has no initial weight.
		est := 0
		if w := r.cfg.Fragment.InitialWeights; r.cfg.Instance < len(w) {
			est = int(float64(spec.BuildEst) * w[r.cfg.Instance])
		}
		join := &HashJoin{
			Build: build, Probe: probe,
			BuildKeys: spec.BuildKeys, ProbeKeys: spec.ProbeKeys,
			BuildEst: est, Out: spec.Ords,
		}
		// The build-side consumer feeds replayed state directly into the
		// join; the scheduler always places the consume leaf directly
		// below the join.
		if bc, ok := build.(*Consumer); ok {
			bc.SetStateTarget(join)
			r.stateTarget = join
		}
		return join, nil

	case physical.KAggregate:
		child, err := r.compile(spec.Children[0])
		if err != nil {
			return nil, err
		}
		kinds, err := aggKindsOf(spec.AggKinds)
		if err != nil {
			return nil, err
		}
		agg := &HashAggregate{
			Child:     child,
			GroupOrds: spec.GroupOrds,
			Kinds:     kinds,
			ArgOrds:   spec.AggArgs,
		}
		// The consume leaf feeds replayed state straight into the
		// aggregate, as with the join's build side.
		if c, ok := child.(*Consumer); ok {
			c.SetStateTarget(agg)
			r.stateTarget = agg
		}
		return agg, nil

	case physical.KSort:
		child, err := r.compile(spec.Children[0])
		if err != nil {
			return nil, err
		}
		return &Sort{Child: child, Ords: spec.SortOrds, Desc: spec.SortDesc}, nil

	case physical.KLimit:
		child, err := r.compile(spec.Children[0])
		if err != nil {
			return nil, err
		}
		return &Limit{Child: child, N: spec.LimitN}, nil

	case physical.KConsume:
		producerFrag := r.producerFragmentOf(spec.Exchange)
		if producerFrag == nil {
			return nil, fmt.Errorf("engine: no fragment produces exchange %s", spec.Exchange)
		}
		c := newConsumer(spec.Exchange, r.cfg.Instance, instanceAddrs(producerFrag),
			producerFrag.Output.Stateful, r.gate, r.cfg.Tr, r.cfg.Node)
		r.consumers[spec.Exchange] = c
		return c, nil

	default:
		return nil, fmt.Errorf("engine: unknown operator kind %v", spec.Kind)
	}
}

// rowOp lowers a per-row operator — filter, projection or web-service call —
// over child. These hold no state, so the compiled tree and every worker
// chain build their own.
func rowOp(spec *physical.OpSpec, child Iterator) (Iterator, error) {
	switch spec.Kind {
	case physical.KFilter:
		pred, err := logical.CompilePredicate(spec.Pred, spec.Children[0].OutSchema())
		if err != nil {
			return nil, err
		}
		return &Select{Child: child, Pred: pred}, nil
	case physical.KProject:
		return &Project{Child: child, Ords: spec.Ords}, nil
	default:
		return &OperationCall{Fn: spec.Fn, ArgOrds: spec.ArgOrds, Child: child}, nil
	}
}

func (r *FragmentRuntime) producerFragmentOf(exchange string) *physical.FragmentSpec {
	for _, f := range r.cfg.Plan.Fragments {
		if f.Output != nil && f.Output.ID == exchange {
			return f
		}
	}
	return nil
}

// Producer exposes the output exchange (nil on the top fragment).
func (r *FragmentRuntime) Producer() *Producer { return r.producer }

// Consumer exposes an input exchange endpoint by ID.
func (r *FragmentRuntime) Consumer(exchange string) *Consumer { return r.consumers[exchange] }

// Service returns the instance's transport service name.
func (r *FragmentRuntime) Service() string { return r.service }

// Node returns the machine hosting this instance.
func (r *FragmentRuntime) Node() simnet.NodeID { return r.cfg.Node }

// Instance returns this runtime's clone index within its fragment.
func (r *FragmentRuntime) Instance() int { return r.cfg.Instance }

// Err returns the first driver error.
func (r *FragmentRuntime) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Run executes the fragment batch-at-a-time and emits M1 self-monitoring
// events every MonitorEvery produced tuples. At width 1 it runs the driver's
// batch loop (drive) over the compiled tree on the calling goroutine; a
// parallel-eligible fragment with Parallelism > 1 runs the same loop on a
// pool of worker chains (runParallel). It returns when the input is
// exhausted, on the first error, or when ctx is canceled — cancellation
// interrupts the driver even while it is blocked in a consumer wait or a
// paused exchange. A nil ctx means run unconstrained.
func (r *FragmentRuntime) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	ectx := r.cfg.Ctx
	if ectx.Costs.StartupMs > 0 {
		ectx.chargeFlat(ectx.Costs.StartupMs)
	}
	if ectx.Monitor != nil && ectx.Costs.AdaptStartupMs > 0 {
		ectx.chargeFlat(ectx.Costs.AdaptStartupMs)
	}
	// The watcher translates a context cancellation into an interrupt of the
	// driver's blocking edges; it must not outlive Run, so Run closes done on
	// exit.
	if ctx.Done() != nil {
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-ctx.Done():
				r.interrupt(qerr.FromContext(ctx))
			case <-done:
			}
		}()
	}
	var err error
	if w := r.width(); w > 1 {
		err = r.runParallel(ctx, w)
	} else {
		err = r.drive(ctx, r.root, ectx, nil)
	}
	// Every chain is closed: R1 state operations left or arriving from now
	// on run at once, under the gate.
	r.gate.finish()
	// The interrupt path unblocks a driver by making consumers report a clean
	// end of stream; this check turns that into the typed cancellation error
	// instead of a truncated "success".
	if ctx.Err() != nil {
		return r.fail(qerr.FromContext(ctx))
	}
	if err == nil {
		if r.producer != nil {
			err = r.producer.Close()
		} else {
			err = r.cfg.Sink.Close()
		}
	}
	if err != nil {
		return r.fail(err)
	}
	ectx.Meter.Flush()
	return nil
}

// drive is the driver's one batch loop, run inline at width 1 and by every
// worker of the pool: open the chain, then pull a batch, push it into the
// output exchange (or the result sink, which only width 1 has) charging
// wctx's meter, and report it to the M1 window, which clamps the next batch
// to what is left of the window. It returns at the end of the input, on an
// error, or on cancellation, which the caller reports. morselMs, when set,
// observes each batch's wall time.
func (r *FragmentRuntime) drive(ctx context.Context, chain Iterator, wctx *ExecContext, morselMs *obs.Histogram) (err error) {
	// Every exit must close the chain exactly once: stateful operators
	// release their reserved memory (and spill runs) in Close, so an error
	// return that skips it leaks mem_inflight_bytes for the rest of the
	// process. A close error surfaces when nothing failed before it.
	defer func() {
		if cerr := chain.Close(); err == nil {
			err = cerr
		}
	}()
	if err := chain.Open(wctx); err != nil {
		return err
	}
	r.m1Opened()
	batch := relation.GetBatch()
	defer batch.Release()
	batch.SetLimit(r.m1Every())
	prev := wctx.Meter.ChargedMs()
	for ctx.Err() == nil {
		start := wctx.Clock.NowMs()
		n, err := chain.NextBatch(batch)
		if err != nil || n == 0 {
			return err
		}
		if r.producer != nil {
			err = r.producer.SendBatch(batch.Tuples, wctx.Meter)
		} else {
			for _, t := range batch.Tuples {
				if err = r.cfg.Sink.Send(t); err != nil {
					break
				}
			}
		}
		if err != nil {
			return err
		}
		morselMs.Observe(wctx.Clock.NowMs() - start)
		cur := wctx.Meter.ChargedMs()
		batch.SetLimit(r.recordBatch(n, cur-prev))
		prev = cur
	}
	return nil
}

// m1Window is the driver's M1 emitter state: the paper's "every MonitorEvery
// tuples from each exchange producer that roots a subplan", one window per
// fragment instance whatever its width. Every chain reports each batch it
// pushed out with the cost its own meter charged for it (meters are
// goroutine-confined), and the window closes on the batch that fills it.
// Chains clamp their next batch to what is left of the window, so at width 1
// every event covers exactly MonitorEvery tuples and exactly their cost.
// Emission happens under mu so Produced stays monotonic.
type m1Window struct {
	mu       sync.Mutex
	started  bool
	count    int64
	lastN    int64
	costMs   float64 // charged since the window opened
	lastWait float64
}

// m1Every is the M1 window length in produced tuples, or 0 when the instance
// is not self-monitoring.
func (r *FragmentRuntime) m1Every() int {
	if ctx := r.cfg.Ctx; ctx.Monitor != nil && ctx.MonitorEvery > 0 {
		return ctx.MonitorEvery
	}
	return 0
}

// m1Opened marks one chain past its Open. The first takes the wait
// baseline, so startup and build-phase waits stay outside every window, as
// each chain's cost baseline does.
func (r *FragmentRuntime) m1Opened() {
	if r.m1Every() == 0 {
		return
	}
	w := &r.m1
	w.mu.Lock()
	if !w.started {
		w.started, w.lastWait = true, r.waitMs()
	}
	w.mu.Unlock()
}

// recordBatch counts n tuples a chain pushed out, whose processing charged
// costMs to that chain's meter, closes the M1 window if they filled it, and
// returns the width of the chain's next batch: what is left of the window,
// or 0 (no clamp) when the instance is not self-monitoring.
func (r *FragmentRuntime) recordBatch(n int, costMs float64) int {
	r.mu.Lock()
	r.produced += int64(n)
	r.mu.Unlock()
	r.obsProduced.Add(int64(n))
	r.obsBatchSize.Observe(float64(n))
	every := r.m1Every()
	if every == 0 {
		return 0
	}
	w := &r.m1
	w.mu.Lock()
	defer w.mu.Unlock()
	w.count += int64(n)
	w.costMs += costMs
	interval := w.count - w.lastN
	if interval < int64(every) {
		return every - int(interval)
	}
	wait := r.waitMs()
	consumed := r.consumedTuples()
	sel := 1.0
	if consumed > 0 {
		sel = float64(w.count) / float64(consumed)
	}
	r.cfg.Ctx.Monitor.EmitM1(M1Event{
		Fragment:       r.cfg.Fragment.ID,
		Instance:       r.cfg.Instance,
		Node:           r.cfg.Node,
		CostPerTupleMs: w.costMs / float64(interval),
		WaitPerTupleMs: (wait - w.lastWait) / float64(interval),
		Selectivity:    sel,
		Produced:       w.count,
	})
	w.lastN, w.costMs, w.lastWait = w.count, 0, wait
	return every
}

// Interrupt aborts the running driver from outside with the given cause —
// the session's recovery manager uses it to bring down the runtimes of a
// crashed node with a typed node-loss error instead of letting them block
// forever on dead exchanges.
func (r *FragmentRuntime) Interrupt(cause error) { r.interrupt(cause) }

// interrupt aborts a running driver from outside: it records the cause,
// releases a driver blocked in a consumer wait (Close makes Next report
// end-of-stream, which the driver's ctx check reclassifies), and aborts a
// driver blocked in a paused output exchange.
func (r *FragmentRuntime) interrupt(cause error) {
	r.fail(cause)
	for _, c := range r.consumers {
		_ = c.Close()
	}
	if r.producer != nil {
		r.producer.Cancel(cause)
	}
}

func (r *FragmentRuntime) waitMs() float64 {
	total := 0.0
	for _, c := range r.consumers {
		_, w, _ := c.Stats()
		total += w
	}
	return total
}

func (r *FragmentRuntime) consumedTuples() int64 {
	var total int64
	for _, c := range r.consumers {
		n, _, _ := c.Stats()
		total += n
	}
	return total
}

// Produced reports the cumulative output tuple count.
func (r *FragmentRuntime) Produced() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.produced
}

func (r *FragmentRuntime) fail(err error) error {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	return err
}

// Stop unregisters the instance and releases resources. Call after the
// whole query has completed. Stop is idempotent and safe to call from
// multiple goroutines; only the first call does the work.
func (r *FragmentRuntime) Stop() {
	r.stopOnce.Do(func() {
		r.cfg.Tr.Unregister(r.cfg.Node, r.service)
		for _, c := range r.consumers {
			_ = c.Close()
		}
		if r.producer != nil {
			r.producer.Release()
		}
	})
}

// handle is the transport entry point for everything addressed to this
// fragment instance.
func (r *FragmentRuntime) handle(from simnet.NodeID, msg *transport.Message) {
	switch msg.Kind {
	case transport.KindData, transport.KindEOS:
		c := r.consumers[msg.Exchange]
		if c == nil {
			msg.ReleaseSlots()
			r.fail(fmt.Errorf("engine: %s: data for unknown exchange %s", r.service, msg.Exchange))
			return
		}
		if err := c.Deliver(msg); err != nil {
			r.fail(err)
		}
	case transport.KindAck:
		if r.producer != nil {
			r.producer.HandleAck(msg)
		}
	case transport.KindControl:
		r.handleControl(msg)
	default:
		r.fail(fmt.Errorf("engine: %s: unexpected %v message", r.service, msg.Kind))
	}
}

// handleControl executes adaptivity control operations and replies to the
// requester. An unlogged instance refuses every operation that recalls,
// evicts or replays: without a recovery log, carrying one out would lose
// tuples or state.
func (r *FragmentRuntime) handleControl(msg *transport.Message) {
	ctrl := msg.Ctrl
	reply := &transport.Ctrl{Op: ctrl.Op, RequestID: ctrl.RequestID, OK: true}
	var err error
	if r.unlogged && needsRecoveryLog(ctrl.Op) {
		err = fmt.Errorf("%v on %s: %w", ctrl.Op, r.service, ErrUnlogged)
	} else {
		err = r.runControl(msg, reply)
	}
	if err != nil {
		reply.OK, reply.Err = false, err.Error()
	}
	if ctrl.ReplyService == "" {
		return
	}
	out := &transport.Message{Kind: transport.KindReply, Exchange: msg.Exchange, Ctrl: reply}
	if _, err := r.cfg.Tr.Send(r.cfg.Node, ctrl.ReplyTo, ctrl.ReplyService, out); err != nil {
		r.fail(qerr.Transport("control reply from "+r.service, err))
	}
}

// ErrUnlogged is the reply error of a control operation that needs a
// recovery log, sent to an instance of a session that keeps none.
var ErrUnlogged = errors.New("engine: the instance keeps no recovery log")

// needsRecoveryLog reports whether a control operation recalls, evicts or
// replays tuples, which only a logged exchange can restore.
func needsRecoveryLog(op transport.CtrlOp) bool {
	switch op {
	case transport.CtrlDiscard, transport.CtrlEvict, transport.CtrlReplay, transport.CtrlResend, transport.CtrlReplayLost:
		return true
	}
	return false
}

// runControl executes one control operation, filling in reply.
func (r *FragmentRuntime) runControl(msg *transport.Message, reply *transport.Ctrl) error {
	ctrl := msg.Ctrl
	switch ctrl.Op {
	case transport.CtrlPause:
		return r.requireProducer(ctrl, (*Producer).Pause)
	case transport.CtrlResume:
		return r.requireProducer(ctrl, func(p *Producer) error { p.Resume(); return nil })
	case transport.CtrlSetWeights:
		return r.requireProducer(ctrl, func(p *Producer) error { return p.SetWeights(ctrl.Weights) })
	case transport.CtrlSetBucketMap:
		return r.requireProducer(ctrl, func(p *Producer) error { return p.SetOwnerMap(ctrl.BucketMap) })
	case transport.CtrlReplay:
		return r.requireProducer(ctrl, func(p *Producer) error {
			_, err := p.Replay(ctrl.Buckets)
			return err
		})
	case transport.CtrlResend:
		return r.requireProducer(ctrl, func(p *Producer) error {
			_, err := p.Resend(msg.ConsumerIdx, ctrl.Seqs)
			return err
		})
	case transport.CtrlProgress:
		// Producers report routed/estimate; a request naming one of this
		// instance's input exchanges reports the tuples consumed from it,
		// so the Responder can estimate progress as processed/expected.
		if c := r.consumers[msg.Exchange]; c != nil {
			reply.Routed, _, _ = c.Stats()
		} else if r.producer != nil {
			reply.Routed, reply.Est = r.producer.Progress()
		} else {
			return errors.New("no producer on " + r.service)
		}
	case transport.CtrlDiscard:
		// An empty exchange filters EVERY input queue in one quiesce, so a
		// stateful fragment can never observe a state gap between its
		// build-queue and probe-queue recalls.
		var targets []*Consumer
		if msg.Exchange == "" {
			for _, c := range r.consumers {
				targets = append(targets, c)
			}
		} else if err := r.requireConsumer(msg.Exchange, func(c *Consumer) error {
			targets = append(targets, c)
			return nil
		}); err != nil {
			return err
		}
		// A discard can complete a pending checkpoint; a driver parked in a
		// pop would never finish another batch to acknowledge it, so the
		// acks are collected here and sent once the gate is released.
		report := make(map[string][]int64)
		acks := make([][]ackItem, len(targets))
		r.gate.quiesce(func() {
			for i, c := range targets {
				for prod, seqs := range c.discardLocked(ctrl.Buckets) {
					report[transport.StreamKey(c.Exchange, prod)] = seqs
				}
				acks[i] = c.ackableLocked(nil)
			}
		})
		for i, c := range targets {
			for _, a := range acks[i] {
				c.sendAck(a)
			}
		}
		reply.DiscardedSeqs = report
	case transport.CtrlEvict:
		// The eviction queues at the gate with the replays; the driver
		// applies it between batches (see flowGate).
		target := r.stateTarget
		if target == nil {
			return errors.New("no stateful operator on " + r.service)
		}
		buckets := ctrl.Buckets
		r.gate.post(func() { target.EvictBuckets(buckets) })
	case transport.CtrlReplayLost:
		return r.requireProducer(ctrl, func(p *Producer) error {
			n, err := p.ReplayLost(ctrl.Peer)
			reply.Routed = int64(n)
			return err
		})
	case transport.CtrlDetachConsumer:
		return r.requireProducer(ctrl, func(p *Producer) error { return p.DetachConsumer(ctrl.Peer) })
	case transport.CtrlDetach:
		return r.requireConsumer(msg.Exchange, func(c *Consumer) error { return c.DetachProducer(ctrl.Peer) })
	case transport.CtrlAttach:
		return r.requireProducer(ctrl, func(p *Producer) error {
			return p.AddConsumer(Addr{Node: ctrl.PeerNode, Service: ctrl.PeerService}, ctrl.Weights)
		})
	case transport.CtrlExpectProducer:
		return r.requireConsumer(msg.Exchange, func(c *Consumer) error {
			c.AddProducer(Addr{Node: ctrl.PeerNode, Service: ctrl.PeerService})
			return nil
		})
	case transport.CtrlPing:
		// Liveness probe: reaching this handler is the answer.
	default:
		return fmt.Errorf("unknown control op %v", ctrl.Op)
	}
	return nil
}

func (r *FragmentRuntime) requireProducer(ctrl *transport.Ctrl, fn func(*Producer) error) error {
	if r.producer == nil {
		return fmt.Errorf("engine: control %v on fragment %s with no producer", ctrl.Op, r.cfg.Fragment.ID)
	}
	return fn(r.producer)
}

func (r *FragmentRuntime) requireConsumer(exchange string, fn func(*Consumer) error) error {
	c := r.consumers[exchange]
	if c == nil {
		return fmt.Errorf("no consumer for exchange %s on %s", exchange, r.service)
	}
	return fn(c)
}

// ConsumedTuples reports the cumulative tuples this instance consumed from
// its input exchanges; the experiments report the per-machine tuple split.
func (r *FragmentRuntime) ConsumedTuples() int64 { return r.consumedTuples() }

// QueuedTuples reports the tuples currently waiting in the instance's input
// queues.
func (r *FragmentRuntime) QueuedTuples() int {
	total := 0
	for _, c := range r.consumers {
		_, _, q := c.Stats()
		total += q
	}
	return total
}

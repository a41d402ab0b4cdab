package services

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"path/filepath"
	"repro/internal/bus"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/qerr"
	"repro/internal/registry"
	"repro/internal/relation"
	"repro/internal/simnet"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/vtime"
	"repro/internal/ws"
	"sort"
)

// Manifest describes a multi-process deployment identically to every
// participant: which machines exist, what they host, and the shared cost
// model. Because the demo database is generated deterministically from its
// seed and the scheduler is deterministic, every process derives the same
// catalog and registry (once, on its first plan — see planner) and from
// them the same physical plan for the same SQL — the deploy message carries
// only the query text.
type Manifest struct {
	// Scale is the real duration of a paper millisecond.
	Scale time.Duration
	Costs engine.Costs
	// Buckets, BufferTuples and CheckpointEvery tune the exchanges.
	Buckets         int
	BufferTuples    int
	CheckpointEvery int

	Coordinator simnet.NodeID
	DataNodes   []DataNodeSpec
	Compute     []ComputeNodeSpec

	// Adaptive enables the AQP components; the coordinator hosts the
	// MonitoringEventDetectors, Diagnoser and Responder, and evaluators
	// forward raw monitoring events to it over the transport.
	Adaptive     bool
	MonitorEvery int
	Assessment   core.Assessment
	Response     core.Response

	// Parallelism is the morsel worker-pool width of each fragment driver
	// (0/1 serial, negative resolves to the host's GOMAXPROCS).
	Parallelism int

	// MemoryBudgetBytes caps each deployment's stateful-operator memory per
	// machine (0 unbudgeted) at any Parallelism width — morsel workers
	// account through per-stripe handles of one striped budget and spill
	// concurrently. SpillDir roots posix spill runs, with each process
	// spilling under its own node-named subdirectory (empty keeps spills in
	// memory).
	MemoryBudgetBytes int64
	SpillDir          string

	// ScanReadahead is the stored-scan prefetch depth in blocks (0 default,
	// negative synchronous); see GDQSConfig.ScanReadahead.
	ScanReadahead int
}

// spillBackendFor builds the process-local spill backend for one manifest
// participant: posix under a node-named subdirectory of SpillDir (so
// co-hosted processes sharing one directory never collide), or the
// in-memory backend when no directory is configured.
func (m Manifest) spillBackendFor(node simnet.NodeID) (storage.Backend, error) {
	if m.SpillDir == "" {
		return storage.NewMemory(), nil
	}
	return storage.NewPosix(filepath.Join(m.SpillDir, string(node)))
}

// DataNodeSpec describes one data machine.
type DataNodeSpec struct {
	Node         simnet.NodeID
	Sequences    int
	Interactions int
}

// ComputeNodeSpec describes one evaluation machine.
type ComputeNodeSpec struct {
	Node          simnet.NodeID
	Speed         float64
	EntropyCostMs float64
}

func (m Manifest) withDefaults() Manifest {
	if m.Scale <= 0 {
		m.Scale = vtime.DefaultScale
	}
	if m.Costs == (engine.Costs{}) {
		m.Costs = engine.DefaultCosts()
	}
	if m.Buckets <= 0 {
		m.Buckets = engine.DefaultBuckets
	}
	if m.MonitorEvery == 0 && m.Adaptive {
		m.MonitorEvery = 10
	}
	if m.Assessment == 0 {
		m.Assessment = core.A1
	}
	if m.Response == 0 {
		m.Response = core.R2
	}
	return m
}

// storeFor builds the deterministic table store of a data node.
func (s DataNodeSpec) storeFor() *dataset.Store {
	seqs := s.Sequences
	if seqs == 0 {
		seqs = dataset.DefaultSequences
	}
	ints := s.Interactions
	if ints == 0 {
		ints = dataset.DefaultInteractions
	}
	return dataset.DemoSized(seqs, ints)
}

// planner is one participant's planning state: the metadata catalog and
// resource registry derived from the manifest — service state in the
// paper's GDQS — built on the participant's first plan, exactly once, and
// held until the participant is dropped. Nothing is derived at construction;
// the zero value is ready to use.
type planner struct {
	once sync.Once
	cat  *catalog.Catalog
	reg  *registry.Registry
	err  error
	// generated counts the data-node stores the one derivation had to
	// generate because this participant does not host them.
	generated int
}

// metadata returns the catalog and registry every process agrees on,
// deriving them on the first call. node and store are the participant's own
// data node and the table store it already serves scans from (nil on every
// other participant). A failed derivation is kept too: every later plan
// reports the same error.
func (p *planner) metadata(m Manifest, node simnet.NodeID, store *dataset.Store) (*catalog.Catalog, *registry.Registry, error) {
	p.once.Do(func() { p.cat, p.reg, p.err = p.derive(m, node, store) })
	return p.cat, p.reg, p.err
}

func (p *planner) derive(m Manifest, node simnet.NodeID, own *dataset.Store) (*catalog.Catalog, *registry.Registry, error) {
	cat := catalog.New()
	reg := registry.New()
	for _, d := range m.DataNodes {
		// Only the table statistics are kept: a store generated here for a
		// remote data node is garbage once this iteration ends.
		store := own
		if d.Node != node || store == nil {
			store = d.storeFor()
			p.generated++
		}
		var tables []string
		for _, name := range store.Names() {
			tbl, err := store.Table(name)
			if err != nil {
				return nil, nil, err
			}
			if err := cat.PutTable(catalog.TableMeta{
				Name:          tbl.Name,
				Schema:        tbl.Schema,
				Cardinality:   tbl.Cardinality(),
				AvgTupleBytes: tbl.AvgTupleBytes(),
				TotalBytes:    tbl.TotalBytes(),
				Node:          d.Node,
			}); err != nil {
				return nil, nil, err
			}
			tables = append(tables, tbl.Name)
		}
		reg.RegisterData(d.Node, tables...)
	}
	for _, c := range m.Compute {
		if err := reg.RegisterCompute(c.Node, c.Speed); err != nil {
			return nil, nil, err
		}
		for _, svc := range computeServices(c).Services() {
			if err := cat.PutFunction(catalog.FunctionMeta{
				Name:       svc.Name(),
				ArgTypes:   svc.ArgTypes(),
				ResultType: svc.ResultType(),
				CostMs:     svc.BaseCostMs(),
			}); err != nil {
				return nil, nil, err
			}
		}
	}
	return cat, reg, nil
}

func computeServices(c ComputeNodeSpec) *ws.Registry {
	return ws.NewRegistry(ws.Entropy{CostMs: c.EntropyCostMs}, ws.SequenceLength{})
}

// plan derives the (deterministic) physical plan of a query.
func (p *planner) plan(m Manifest, node simnet.NodeID, store *dataset.Store, sql string) (*physical.Plan, error) {
	cat, reg, err := p.metadata(m, node, store)
	if err != nil {
		return nil, err
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	lp, err := logical.Plan(stmt, cat)
	if err != nil {
		return nil, err
	}
	return physical.Schedule(lp, reg, physical.Options{Coordinator: m.Coordinator})
}

// gqesService is the deploy/teardown endpoint every evaluator registers.
const gqesService = "gqes"

// monitorService is the coordinator endpoint receiving forwarded raw
// monitoring events.
const monitorService = "aqp/monitor"

// remoteMonitorSink forwards the engine's raw events to the coordinator
// over the transport.
type remoteMonitorSink struct {
	tr    transport.Transport
	local simnet.NodeID
	coord simnet.NodeID
}

func (s *remoteMonitorSink) EmitM1(e engine.M1Event) {
	msg := &transport.Message{Kind: transport.KindMonitor, Mon: &transport.Monitor{
		Fragment: e.Fragment, Instance: e.Instance, Node: e.Node,
		CostMs: e.CostPerTupleMs, WaitMs: e.WaitPerTupleMs,
		Selectivity: e.Selectivity, Produced: e.Produced,
	}}
	_, _ = s.tr.Send(s.local, s.coord, monitorService, msg)
}

func (s *remoteMonitorSink) EmitM2(e engine.M2Event) {
	msg := &transport.Message{Kind: transport.KindMonitor, Exchange: e.Exchange,
		Mon: &transport.Monitor{
			IsM2: true, Fragment: e.Fragment, Instance: e.Instance, Node: e.Node,
			ConsumerFragment: e.ConsumerFragment, ConsumerInstance: e.ConsumerInstance,
			ConsumerNode: e.ConsumerNode, SendCostMs: e.SendCostMs, TupleCount: e.TupleCount,
		}}
	_, _ = s.tr.Send(s.local, s.coord, monitorService, msg)
}

// Evaluator is the multi-process GQES/AGQES daemon: it waits for deploy
// requests, instantiates the fragment instances scheduled on its machine,
// and runs them.
type Evaluator struct {
	manifest Manifest
	node     simnet.NodeID
	tr       transport.Transport
	clock    *vtime.Clock
	machine  *simnet.Node
	store    *dataset.Store
	services *ws.Registry
	spill    storage.Backend
	planner  planner

	mu       sync.Mutex
	runtimes []*engine.FragmentRuntime
	// cancel ends the context of the active deployment's drivers; teardown
	// uses it to interrupt runtimes that are still blocked mid-query.
	cancel context.CancelFunc
}

// NewEvaluator builds and registers the evaluator for the local node.
func NewEvaluator(manifest Manifest, node simnet.NodeID, tr transport.Transport) (*Evaluator, error) {
	manifest = manifest.withDefaults()
	e := &Evaluator{
		manifest: manifest,
		node:     node,
		tr:       tr,
		clock:    vtime.NewClock(manifest.Scale),
		machine:  simnet.NewNode(node),
	}
	for _, d := range manifest.DataNodes {
		if d.Node == node {
			e.store = d.storeFor()
		}
	}
	for _, c := range manifest.Compute {
		if c.Node == node {
			e.services = computeServices(c)
		}
	}
	spill, err := manifest.spillBackendFor(node)
	if err != nil {
		return nil, err
	}
	e.spill = spill
	tr.Register(node, gqesService, e.handle)
	return e, nil
}

// SetPerturbation installs an artificial load on the local machine.
func (e *Evaluator) SetPerturbation(p vtime.Perturbation) {
	e.machine.SetPerturbation(p)
}

func (e *Evaluator) handle(from simnet.NodeID, msg *transport.Message) {
	switch msg.Kind {
	case transport.KindDeploy:
		err := e.deploy(msg.Query)
		e.reply(msg, err)
	case transport.KindTeardown:
		e.teardown()
		e.reply(msg, nil)
	}
}

func (e *Evaluator) reply(msg *transport.Message, err error) {
	if msg.Ctrl == nil || msg.Ctrl.ReplyService == "" {
		return
	}
	reply := &transport.Ctrl{RequestID: msg.Ctrl.RequestID, OK: err == nil}
	if err != nil {
		reply.Err = err.Error()
	}
	out := &transport.Message{Kind: transport.KindReply, Ctrl: reply}
	_, _ = e.tr.Send(e.node, msg.Ctrl.ReplyTo, msg.Ctrl.ReplyService, out)
}

// deploy instantiates and starts this machine's fragment instances.
func (e *Evaluator) deploy(sql string) error {
	plan, err := e.planner.plan(e.manifest, e.node, e.store, sql)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.runtimes) > 0 {
		return fmt.Errorf("services: evaluator %s already has an active query", e.node)
	}
	mem := storage.NewBudget(e.manifest.MemoryBudgetBytes)
	var started []*engine.FragmentRuntime
	for _, frag := range plan.Fragments {
		for i, nodeID := range frag.Instances {
			if nodeID != e.node {
				continue
			}
			ctx := &engine.ExecContext{
				Clock:        e.clock,
				Node:         e.machine,
				Meter:        vtime.NewMeter(e.clock),
				Store:        e.store,
				Services:     e.services,
				Costs:        e.manifest.Costs,
				MonitorEvery: e.manifest.MonitorEvery,
				Buckets:      e.manifest.Buckets,
				Fragment:     frag.ID,
				Instance:     i,
				Parallelism:  resolveParallelism(e.manifest.Parallelism),
				Readahead:    e.manifest.ScanReadahead,
				Mem:          mem,
				Spill:        e.spill,
			}
			if e.manifest.Adaptive && e.manifest.MonitorEvery > 0 {
				ctx.Monitor = &remoteMonitorSink{tr: e.tr, local: e.node, coord: e.manifest.Coordinator}
			}
			rt, err := engine.NewFragmentRuntime(engine.RuntimeConfig{
				Plan:            plan,
				Fragment:        frag,
				Instance:        i,
				Ctx:             ctx,
				Tr:              e.tr,
				Node:            nodeID,
				BufferTuples:    e.manifest.BufferTuples,
				CheckpointEvery: e.manifest.CheckpointEvery,
			})
			if err != nil {
				for _, r := range started {
					r.Stop()
				}
				return err
			}
			started = append(started, rt)
		}
	}
	e.runtimes = started
	dctx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel
	for _, rt := range started {
		go func(rt *engine.FragmentRuntime) { _ = rt.Run(dctx) }(rt)
	}
	return nil
}

func (e *Evaluator) teardown() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cancel != nil {
		e.cancel()
		e.cancel = nil
	}
	for _, rt := range e.runtimes {
		rt.Stop()
	}
	e.runtimes = nil
	// One query at a time, so sweeping the whole process-local namespace
	// reclaims exactly this deployment's spill runs.
	_, _ = e.spill.RemoveMatching("")
}

// Close tears down any active query and unregisters the evaluator.
func (e *Evaluator) Close() {
	e.teardown()
	e.tr.Unregister(e.node, gqesService)
	_ = e.spill.Close()
}

// RemoteCoordinator is the multi-process GDQS: it plans queries, deploys
// fragments to the evaluators over the transport, hosts the top fragment
// and the result sink locally, and — when adaptive — hosts every
// MonitoringEventDetector plus the Diagnoser and Responder, fed by
// forwarded raw events.
type RemoteCoordinator struct {
	manifest Manifest
	tr       transport.Transport
	clock    *vtime.Clock
	machine  *simnet.Node
	bus      *bus.Bus
	spill    storage.Backend
	planner  planner
	// rpcSeq numbers this coordinator's RPCs: each gets a reply endpoint and
	// a request id of its own.
	rpcSeq atomic.Uint64

	mu sync.Mutex // serialises Execute
}

// NewRemoteCoordinator builds the coordinator for the manifest's
// coordinator node.
func NewRemoteCoordinator(manifest Manifest, tr transport.Transport) (*RemoteCoordinator, error) {
	manifest = manifest.withDefaults()
	clock := vtime.NewClock(manifest.Scale)
	c := &RemoteCoordinator{
		manifest: manifest,
		tr:       tr,
		clock:    clock,
		machine:  simnet.NewNode(manifest.Coordinator),
		bus:      bus.New(clock, nil),
	}
	spill, err := manifest.spillBackendFor(manifest.Coordinator)
	if err != nil {
		return nil, err
	}
	c.spill = spill
	return c, nil
}

// Close shuts the coordinator's bus down.
func (c *RemoteCoordinator) Close() {
	c.bus.Close()
	_ = c.spill.Close()
}

// rpcWait sends a request to a remote service and waits for the ack, the
// timeout, or ctx — whichever comes first. A nil ctx waits only on the
// timeout (teardown must complete even for a canceled query).
func (c *RemoteCoordinator) rpcWait(ctx context.Context, to simnet.NodeID, service string, msg *transport.Message, timeout time.Duration) error {
	if ctx == nil {
		ctx = context.Background()
	}
	replyCh := make(chan *transport.Ctrl, 1)
	id := c.rpcSeq.Add(1)
	replyService := fmt.Sprintf("deploy-reply/%d", id)
	c.tr.Register(c.manifest.Coordinator, replyService, func(_ simnet.NodeID, m *transport.Message) {
		if m.Kind == transport.KindReply && m.Ctrl != nil && m.Ctrl.RequestID == id {
			select {
			case replyCh <- m.Ctrl:
			default:
			}
		}
	})
	defer c.tr.Unregister(c.manifest.Coordinator, replyService)
	msg.Ctrl = &transport.Ctrl{RequestID: id, ReplyTo: c.manifest.Coordinator, ReplyService: replyService}
	if _, err := c.tr.Send(c.manifest.Coordinator, to, service, msg); err != nil {
		return qerr.Transport(fmt.Sprintf("%s to %s", msg.Kind, to), err)
	}
	select {
	case reply := <-replyCh:
		if !reply.OK {
			return fmt.Errorf("services: %s on %s: %s", msg.Kind, to, reply.Err)
		}
		return nil
	case <-ctx.Done():
		return qerr.FromContext(ctx)
	case <-time.After(timeout):
		return qerr.Transport(fmt.Sprintf("%s on %s", msg.Kind, to),
			fmt.Errorf("services: reply timed out after %v", timeout))
	}
}

// evaluatorNodes lists every machine hosting fragments other than the
// coordinator, ordered so that consumers deploy before their producers: a
// producer that starts pumping towards a not-yet-registered consumer
// endpoint would lose buffers. Plan fragments are bottom-up (producers
// first), so ordering nodes by the highest fragment index they host,
// descending, deploys the consuming side of every exchange first.
func evaluatorNodes(plan *physical.Plan) []simnet.NodeID {
	// Fragments are visited in ascending order, so the last assignment a
	// node receives is the highest index it hosts.
	highest := make(map[simnet.NodeID]int)
	for idx, f := range plan.Fragments {
		for _, n := range f.Instances {
			if n != plan.Coordinator {
				highest[n] = idx
			}
		}
	}
	out := make([]simnet.NodeID, 0, len(highest))
	for n := range highest {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		if highest[out[i]] != highest[out[j]] {
			return highest[out[i]] > highest[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// Execute plans, deploys and runs one query across the remote evaluators
// under ctx: cancelling it interrupts the local drivers (and the teardown
// defers reclaim the remote ones), returning qerr.ErrCanceled; exceeding
// the timeout returns qerr.ErrTimeout. A nil ctx runs under only the
// timeout.
func (c *RemoteCoordinator) Execute(ctx context.Context, sql string, timeout time.Duration) (*QueryResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if timeout <= 0 {
		timeout = 5 * time.Minute
	}
	plan, err := c.planner.plan(c.manifest, c.manifest.Coordinator, nil, sql)
	if err != nil {
		return nil, qerr.Plan("plan", err)
	}
	start := time.Now()
	mem := storage.NewBudget(c.manifest.MemoryBudgetBytes)
	defer func() { _, _ = c.spill.RemoveMatching("") }()

	// First failure — local fragment, deadline, or external cancellation —
	// cancels sctx, which interrupts every local driver.
	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	sctx, stopTimeout := context.WithTimeout(runCtx, timeout)
	defer stopTimeout()

	// Adaptivity components, all hosted here; raw events arrive over the
	// transport and are republished on the local bus.
	var (
		meds      []*core.MonitoringEventDetector
		diagnoser *core.Diagnoser
		responder *core.Responder
	)
	if c.manifest.Adaptive {
		seen := map[simnet.NodeID]bool{}
		for _, frag := range plan.Fragments {
			for _, node := range frag.Instances {
				if !seen[node] {
					seen[node] = true
					meds = append(meds, core.NewMED(sctx, c.bus, node, core.DefaultMEDConfig()))
				}
			}
		}
		diagnoser = core.NewDiagnoser(sctx, c.bus, c.manifest.Coordinator,
			core.DiagnoserConfig{ThresA: 0.2, Assessment: c.manifest.Assessment})
		responder = core.NewResponder(sctx, c.bus, c.tr, c.manifest.Coordinator,
			core.ResponderConfig{Response: c.manifest.Response, MaxProgress: 0.9})
		responder.SetClock(c.clock)
		for _, topo := range core.TopologyOf(plan, c.manifest.Buckets) {
			diagnoser.Register(topo)
			if err := responder.Register(topo); err != nil {
				return nil, qerr.Schedule("register topology", err)
			}
		}
		c.tr.Register(c.manifest.Coordinator, monitorService, func(_ simnet.NodeID, m *transport.Message) {
			if m.Kind != transport.KindMonitor || m.Mon == nil {
				return
			}
			adapter := &core.MonitorAdapter{Bus: c.bus, Node: m.Mon.Node}
			if m.Mon.IsM2 {
				adapter.EmitM2(engine.M2Event{
					Exchange: m.Exchange, Fragment: m.Mon.Fragment, Instance: m.Mon.Instance,
					Node: m.Mon.Node, ConsumerFragment: m.Mon.ConsumerFragment,
					ConsumerInstance: m.Mon.ConsumerInstance, ConsumerNode: m.Mon.ConsumerNode,
					SendCostMs: m.Mon.SendCostMs, TupleCount: m.Mon.TupleCount,
				})
			} else {
				adapter.EmitM1(engine.M1Event{
					Fragment: m.Mon.Fragment, Instance: m.Mon.Instance, Node: m.Mon.Node,
					CostPerTupleMs: m.Mon.CostMs, WaitPerTupleMs: m.Mon.WaitMs,
					Selectivity: m.Mon.Selectivity, Produced: m.Mon.Produced,
				})
			}
		})
	}
	defer func() {
		for _, m := range meds {
			m.Stop()
		}
		if diagnoser != nil {
			diagnoser.Stop()
		}
		if responder != nil {
			responder.Stop()
		}
		if c.manifest.Adaptive {
			c.tr.Unregister(c.manifest.Coordinator, monitorService)
		}
	}()

	// Local runtimes first (the top fragment's consumers must exist before
	// remote producers start), then deploy outward.
	sink := &rowSink{ch: make(chan relation.Tuple, 4096)}
	var local []*engine.FragmentRuntime
	var localIDs []string
	defer func() {
		for _, rt := range local {
			rt.Stop()
		}
	}()
	for _, frag := range plan.Fragments {
		for i, nodeID := range frag.Instances {
			if nodeID != c.manifest.Coordinator {
				continue
			}
			ctx := &engine.ExecContext{
				Clock:       c.clock,
				Node:        c.machine,
				Meter:       vtime.NewMeter(c.clock),
				Costs:       c.manifest.Costs,
				Buckets:     c.manifest.Buckets,
				Fragment:    frag.ID,
				Instance:    i,
				Parallelism: resolveParallelism(c.manifest.Parallelism),
				Readahead:   c.manifest.ScanReadahead,
				Mem:         mem,
				Spill:       c.spill,
			}
			cfg := engine.RuntimeConfig{
				Plan: plan, Fragment: frag, Instance: i, Ctx: ctx,
				Tr: c.tr, Node: nodeID,
				BufferTuples:    c.manifest.BufferTuples,
				CheckpointEvery: c.manifest.CheckpointEvery,
			}
			if frag.Output == nil {
				cfg.Sink = sink
			}
			rt, err := engine.NewFragmentRuntime(cfg)
			if err != nil {
				return nil, qerr.Schedule("deploy "+frag.InstanceID(i), err)
			}
			local = append(local, rt)
			localIDs = append(localIDs, frag.InstanceID(i))
		}
	}

	evaluators := evaluatorNodes(plan)
	deployed := evaluators[:0:0]
	defer func() {
		for _, node := range deployed {
			// Teardown runs under its own deadline, not sctx: remote
			// runtimes must be reclaimed even when the query was canceled.
			_ = c.rpcWait(nil, node, gqesService, &transport.Message{Kind: transport.KindTeardown}, 10*time.Second)
		}
	}()
	for _, node := range evaluators {
		if err := c.rpcWait(sctx, node, gqesService,
			&transport.Message{Kind: transport.KindDeploy, Query: sql}, 30*time.Second); err != nil {
			return nil, err
		}
		deployed = append(deployed, node)
	}

	// First-error-wins: a failing driver cancels sctx, interrupting its
	// local siblings; context-derived errors from the interrupted drivers
	// are not new failures.
	var failMu sync.Mutex
	var firstErr error
	fail := func(op string, err error) {
		if err == nil {
			return
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			err = qerr.Exec(op, err)
		}
		failMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		failMu.Unlock()
		cancel(err)
	}
	var wg sync.WaitGroup
	for i, rt := range local {
		wg.Add(1)
		go func(id string, rt *engine.FragmentRuntime) {
			defer wg.Done()
			if err := rt.Run(sctx); err != nil {
				fail("fragment "+id, err)
			}
		}(localIDs[i], rt)
	}

	var rows []relation.Tuple
	done := make(chan struct{})
	go func() {
		defer close(done)
		for t := range sink.ch {
			rows = append(rows, t)
		}
	}()
	// The deadline lives on sctx, whose cancellation interrupts every local
	// driver, so waiting for them is bounded.
	wg.Wait()
	sinkErr := sink.Close()
	<-done

	failMu.Lock()
	execErr := firstErr
	failMu.Unlock()
	if execErr != nil {
		// Classify through the context: a deadline outranks the derived
		// cancellation errors the interrupted drivers reported.
		if err := qerr.FromContext(sctx); err != nil {
			return nil, err
		}
		return nil, execErr
	}
	if sinkErr != nil {
		return nil, qerr.Exec("result sink close", sinkErr)
	}

	stats := QueryStats{
		ResponseMs: c.clock.MsOf(time.Since(start)),
		Rows:       len(rows),
		Plan:       plan,
	}
	if responder != nil {
		rs := responder.Stats()
		stats.Adaptations = rs.Adaptations
		stats.TuplesMoved = rs.TuplesMoved
		stats.StateReplays = rs.StateReplays
		stats.Timeline = responder.Timeline()
	}
	return &QueryResult{
		Columns: plan.Top().Root.OutSchema().Columns(),
		Rows:    rows,
		Stats:   stats,
	}, nil
}

package services

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/bus"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/physical"
	"repro/internal/qerr"
	"repro/internal/registry"
	"repro/internal/simnet"
	"repro/internal/sqlparse"
	"repro/internal/transport"
	"repro/internal/vtime"
	"repro/internal/ws"
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
	// machine (0 unbudgeted) at any Parallelism width: every operator and
	// worker accounts against one budget. SpillDir roots posix spill runs, with each process
	// spilling under its own node-named subdirectory (empty keeps spills in
	// memory).
	MemoryBudgetBytes int64
	SpillDir          string
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

// sessionConfig is the one conversion of a manifest into what sessions are
// configured by: the manifest's choices over the same defaults an in-process
// GDQS starts from.
func (m Manifest) sessionConfig() GDQSConfig {
	cfg := DefaultGDQSConfig()
	cfg.Adaptive = m.Adaptive
	if m.MonitorEvery != 0 {
		cfg.MonitorEvery = m.MonitorEvery
	}
	// Zero means the default policy to the Diagnoser and Responder too.
	cfg.Diagnoser.Assessment = m.Assessment
	cfg.Responder.Response = m.Response
	cfg.Parallelism = m.Parallelism
	cfg.MemoryBudgetBytes = m.MemoryBudgetBytes
	return cfg
}

// deployTimeout bounds one deploy request's wait for its reply.
const deployTimeout = 30 * time.Second

// participant is one process of a manifest deployment — what an Evaluator
// and a RemoteCoordinator have in common: a host owning one machine, and the
// planning state derived from the manifest.
type participant struct {
	*host
	manifest Manifest
	// local is the one machine this process hosts.
	local   *site
	planner planner
}

// newParticipant builds the process hosting the machine named local, with the
// tables or Web Services the manifest places on it, spilling under a
// node-named subdirectory of SpillDir (so co-hosted processes sharing one
// directory never collide; in memory when no directory is configured). The
// coordinator's process also gets the notification bus its AQP components
// talk over and the deploy client; every other process forwards its raw
// monitoring events to the coordinator.
func (m Manifest) newParticipant(tr transport.Transport, local simnet.NodeID) (*participant, error) {
	dir := m.SpillDir
	if dir != "" {
		dir = filepath.Join(dir, string(local))
	}
	spill, err := openSpill(dir)
	if err != nil {
		return nil, err
	}
	grid := ClusterConfig{Scale: m.Scale, Costs: m.Costs, Buckets: m.Buckets,
		BufferTuples: m.BufferTuples, CheckpointEvery: m.CheckpointEvery}.withDefaults()
	st := &site{node: simnet.NewNode(local)}
	for _, d := range m.DataNodes {
		if d.Node == local {
			st.store = d.storeFor()
		}
	}
	for _, c := range m.Compute {
		if c.Node == local {
			st.services = computeServices(c)
		}
	}
	h := &host{
		tr:    tr,
		clock: vtime.NewClock(grid.Scale),
		node:  m.Coordinator,
		grid:  grid,
		cfg:   m.sessionConfig(),
		spill: spill,
		site: func(id simnet.NodeID) *site {
			if id == local {
				return st
			}
			return nil
		},
	}
	if local == m.Coordinator {
		h.bus = bus.New(h.clock, nil)
		h.rpc = transport.NewCaller(tr, local, "gdqs/deploy@"+string(local), deployTimeout)
		st.monitor = &core.MonitorAdapter{Bus: h.bus, Node: local}
	} else {
		st.monitor = &remoteMonitorSink{tr: tr, local: local, coord: m.Coordinator}
	}
	return &participant{host: h, manifest: m, local: st}, nil
}

// close releases what the participant acquired.
func (h *host) close() {
	if h.rpc != nil {
		h.rpc.Close()
	}
	if h.bus != nil {
		h.bus.Close()
	}
	_ = h.spill.Close()
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
// deriving them on the first call. A failed derivation is kept too: every
// later plan reports the same error.
func (p *participant) metadata() (*catalog.Catalog, *registry.Registry, error) {
	pl := &p.planner
	pl.once.Do(func() { pl.cat, pl.reg, pl.err = p.derive() })
	return pl.cat, pl.reg, pl.err
}

func (p *participant) derive() (*catalog.Catalog, *registry.Registry, error) {
	cat := catalog.New()
	reg := registry.New()
	for _, d := range p.manifest.DataNodes {
		// The data node reads the store it already serves scans from. Every
		// other participant generates the tables; only their statistics are
		// kept, the store is garbage once this iteration ends.
		store := p.local.store
		if d.Node != p.local.node.ID() || store == nil {
			store = d.storeFor()
			p.planner.generated++
		}
		if err := advertiseData(cat, reg, d.Node, store); err != nil {
			return nil, nil, err
		}
	}
	for _, c := range p.manifest.Compute {
		if err := advertiseCompute(cat, reg, c.Node, c.Speed, computeServices(c)); err != nil {
			return nil, nil, err
		}
	}
	return cat, reg, nil
}

func computeServices(c ComputeNodeSpec) *ws.Registry {
	return ws.NewRegistry(ws.Entropy{CostMs: c.EntropyCostMs}, ws.SequenceLength{})
}

// plan derives the (deterministic) physical plan of a query.
func (p *participant) plan(sql string) (*physical.Plan, error) {
	cat, reg, err := p.metadata()
	if err != nil {
		return nil, qerr.Plan("metadata", err)
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, qerr.Plan("parse", err)
	}
	_, _, pplan, err := compile(stmt, cat, reg, physical.Options{Coordinator: p.node})
	return pplan, err
}

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
// requests and runs the fragment instances scheduled on its machine in a
// participant QuerySession, which the teardown request closes.
type Evaluator struct {
	*participant

	mu     sync.Mutex
	active *QuerySession
}

// NewEvaluator builds and registers the evaluator for the local node.
func NewEvaluator(manifest Manifest, node simnet.NodeID, tr transport.Transport) (*Evaluator, error) {
	p, err := manifest.newParticipant(tr, node)
	if err != nil {
		return nil, err
	}
	e := &Evaluator{participant: p}
	tr.Register(node, gqesService, e.handle)
	return e, nil
}

// SetPerturbation installs an artificial load on the local machine.
func (e *Evaluator) SetPerturbation(p vtime.Perturbation) {
	e.local.node.SetPerturbation(p)
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
	_, _ = e.tr.Send(e.local.node.ID(), msg.Ctrl.ReplyTo, msg.Ctrl.ReplyService, out)
}

// deploy instantiates and starts this machine's fragment instances.
func (e *Evaluator) deploy(sql string) error {
	plan, err := e.plan(sql)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.active != nil {
		return fmt.Errorf("services: evaluator %s already has an active query", e.local.node.ID())
	}
	// The deployment lives until its teardown request, not until any caller
	// gives up.
	s, err := newQuerySession(context.Background(), e.host, plan, sql)
	if err != nil {
		return err
	}
	e.active = s
	s.start()
	return nil
}

func (e *Evaluator) teardown() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.active != nil {
		e.active.Close()
		e.active = nil
	}
}

// Close tears down any active query and unregisters the evaluator.
func (e *Evaluator) Close() {
	e.teardown()
	e.tr.Unregister(e.local.node.ID(), gqesService)
	e.close()
}

// RemoteCoordinator is the multi-process GDQS: it plans queries and runs
// each in a QuerySession whose host owns only the coordinator's machine, so
// the session hosts the top fragment, the result sink and — when adaptive —
// every AQP component here, and deploys everything else to the evaluators
// over the transport.
type RemoteCoordinator struct {
	*participant

	mu sync.Mutex // serialises Execute
}

// NewRemoteCoordinator builds the coordinator for the manifest's
// coordinator node.
func NewRemoteCoordinator(manifest Manifest, tr transport.Transport) (*RemoteCoordinator, error) {
	p, err := manifest.newParticipant(tr, manifest.Coordinator)
	if err != nil {
		return nil, err
	}
	return &RemoteCoordinator{participant: p}, nil
}

// Close shuts the coordinator's bus, deploy client and spill backend down.
func (c *RemoteCoordinator) Close() { c.close() }

// Execute plans, deploys and runs one query across the remote evaluators
// under ctx: cancelling it interrupts the local drivers (and the session's
// Close reclaims the remote ones), returning qerr.ErrCanceled; exceeding
// the timeout returns qerr.ErrTimeout. A nil ctx runs under only the
// timeout.
func (c *RemoteCoordinator) Execute(ctx context.Context, sql string, timeout time.Duration) (*QueryResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if timeout <= 0 {
		timeout = c.cfg.QueryTimeout
	}
	plan, err := c.plan(sql)
	if err != nil {
		return nil, err
	}
	return c.run(ctx, plan, sql, timeout)
}

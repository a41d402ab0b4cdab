package services

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/physical"
	"repro/internal/qerr"
	"repro/internal/relation"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/vtime"
)

// QuerySession owns every resource one query execution creates in this
// process: the fragment runtimes of the machines its host owns (and through
// them the transport registrations and exchange endpoints), and — on the
// host that owns the coordinator node — the deployments on machines hosted
// elsewhere, the AQP components with their bus subscriptions, and the result
// sink. The session's context is the single lifecycle mechanism: it carries
// the query deadline, the first failure cancels it (taking every sibling
// fragment down with it), and Close — idempotent, called exactly once per
// resource no matter how many paths race to it — releases the whole tree.
//
// Ownership tree:
//
//	QuerySession
//	├── ctx (deadline + first-error-wins cancellation)
//	├── fragment runtimes → transport registrations, producers, consumers
//	├── remote deployments → teardown requests
//	├── MEDs, Diagnoser, Responder → bus subscriptions, responder RPC endpoint,
//	│   forwarded-monitor endpoint
//	└── result sink
type QuerySession struct {
	host *host
	plan *physical.Plan
	// elastic enables the recovery manager: failure detection, failover
	// onto survivors, and live admission of joining evaluators.
	elastic bool

	// ctx is canceled when the query is done — by deadline, by external
	// cancellation, or by the first fragment failure (recorded as the
	// cancellation cause).
	ctx    context.Context
	cancel context.CancelCauseFunc

	diagnoser *core.Diagnoser
	responder *core.Responder
	sink      *rowSink
	// deployed lists the machines hosted elsewhere that accepted a deploy
	// request; monitored records that the forwarded-monitor endpoint is
	// registered for them.
	deployed  []simnet.NodeID
	monitored bool

	// mem is this query's memory accountant. Close sweeps the query's run
	// namespace on the host's spill backend as a safety net against leaks on
	// error paths.
	mem *storage.Budget

	// rtMu guards the mutable execution membership: the runtime map and MED
	// list (live joins grow them), the active-driver counter (rtCond signals
	// it reaching zero), and the set of diagnosed-dead machines.
	rtMu     sync.Mutex
	rtCond   *sync.Cond
	active   int
	runtimes map[string]*engine.FragmentRuntime
	meds     map[simnet.NodeID]*core.MonitoringEventDetector
	dead     map[simnet.NodeID]bool

	// deadCh and joinCh feed the recovery goroutine; failovers/joined count
	// completed membership changes for QueryStats.
	deadCh    chan simnet.NodeID
	joinCh    chan core.NodeEvent
	failovers atomic.Int64
	joined    atomic.Int64

	failMu   sync.Mutex
	firstErr error

	closeOnce sync.Once
}

// gqesService is the deploy/teardown endpoint every evaluator registers;
// monitorService is the coordinator endpoint receiving the raw monitoring
// events evaluators forward.
const (
	gqesService    = "gqes"
	monitorService = "aqp/monitor"
)

// teardownTimeout bounds one teardown request. Teardown runs under its own
// deadline, not the session context: remote runtimes must be reclaimed even
// when the query was canceled.
const teardownTimeout = 10 * time.Second

// newQuerySession assembles the session for a scheduled plan under ctx,
// which carries the query deadline. On the coordinating host: AQP components
// first (their subscriptions are scoped to the session context), then one
// fragment runtime per instance placed on a machine the host owns, then —
// consumers first — a deploy request carrying sql to every other machine of
// the plan. On a participant: its own machines' runtimes only. On any
// assembly error the half-built session is fully closed before returning.
func newQuerySession(ctx context.Context, h *host, plan *physical.Plan, sql string) (*QuerySession, error) {
	sctx, cancel := context.WithCancelCause(ctx)
	s := &QuerySession{
		host:     h,
		plan:     plan,
		elastic:  h.cfg.Adaptive && h.cfg.Elastic,
		ctx:      sctx,
		cancel:   cancel,
		runtimes: make(map[string]*engine.FragmentRuntime),
		meds:     make(map[simnet.NodeID]*core.MonitoringEventDetector),
		dead:     make(map[simnet.NodeID]bool),
		deadCh:   make(chan simnet.NodeID, 64),
		joinCh:   make(chan core.NodeEvent, 64),
		mem:      storage.NewBudget(h.cfg.MemoryBudgetBytes),
	}
	s.rtCond = sync.NewCond(&s.rtMu)
	// The host that owns the coordinator's machine coordinates: it alone
	// collects results, adapts, and deploys to the machines it does not own.
	coordinating := h.site(h.node) != nil
	var remote []simnet.NodeID
	if coordinating {
		s.sink = &rowSink{}
		remote = remoteNodes(plan, h)
	}
	// Adaptivity components: one MED per evaluating site, one Diagnoser
	// and one Responder (paper §3.1), hosted at the coordinator.
	if coordinating && h.cfg.Adaptive {
		for _, frag := range plan.Fragments {
			for _, node := range frag.Instances {
				if s.meds[node] == nil {
					s.meds[node] = core.NewMED(sctx, h.bus, node, h.cfg.MED)
					s.meds[node].SetClock(h.clock)
				}
			}
		}
		s.diagnoser = core.NewDiagnoser(sctx, h.bus, h.node, h.cfg.Diagnoser)
		s.diagnoser.SetClock(h.clock)
		s.responder = core.NewResponder(sctx, h.bus, h.tr, h.node, h.cfg.Responder)
		s.responder.SetClock(h.clock)
		for _, topo := range core.TopologyOf(plan, h.grid.Buckets) {
			s.diagnoser.Register(topo)
			if err := s.responder.Register(topo); err != nil {
				s.Close()
				return nil, qerr.Schedule("register topology", err)
			}
		}
		if len(remote) > 0 {
			// Machines hosted elsewhere forward their raw events here; the
			// endpoint must exist before the first of them is deployed.
			h.tr.Register(h.node, monitorService, s.onForwardedMonitor)
			s.monitored = true
		}
	}

	// Dynamically create an evaluation service per fragment instance hosted
	// here. Local runtimes come first: the consumers they register must
	// exist before remote producers start.
	for _, frag := range plan.Fragments {
		for i, node := range frag.Instances {
			st := h.site(node)
			if st == nil {
				continue
			}
			rt, err := s.newInstanceRuntime(frag, i, node, st)
			if err != nil {
				s.Close()
				return nil, qerr.Schedule("deploy "+frag.InstanceID(i), err)
			}
			s.runtimes[frag.InstanceID(i)] = rt
		}
	}
	for _, node := range remote {
		if err := s.deployRemote(node, sql); err != nil {
			s.Close()
			return nil, err
		}
	}

	if s.elastic {
		// Membership events are the authoritative failure/join source: the
		// cluster publishes them at the instant of KillNode/AddComputeNode,
		// ahead of any heartbeat or peer-loss discovery.
		h.bus.SubscribeContext(sctx, "session", h.node, core.TopicMembership, s.onMembership)
	}
	return s, nil
}

// newInstanceRuntime builds the evaluation service of one fragment instance
// on a machine this process hosts — at initial deployment and, with the
// index past the planned instances, for a live join.
func (s *QuerySession) newInstanceRuntime(frag *physical.FragmentSpec, idx int, node simnet.NodeID, st *site) (*engine.FragmentRuntime, error) {
	h := s.host
	ectx := &engine.ExecContext{
		Clock:        h.clock,
		Node:         st.node,
		Meter:        vtime.NewMeter(h.clock),
		Store:        st.store,
		Services:     st.services,
		Costs:        h.grid.Costs,
		MonitorEvery: h.cfg.MonitorEvery,
		Buckets:      h.grid.Buckets,
		Fragment:     frag.ID,
		Instance:     idx,
		Parallelism:  h.cfg.Parallelism,
		Mem:          s.mem,
		Spill:        h.spill,
	}
	if ectx.Parallelism < 0 {
		ectx.Parallelism = runtime.GOMAXPROCS(0)
	}
	if h.cfg.Adaptive && h.cfg.MonitorEvery > 0 {
		ectx.Monitor = st.monitor
	}
	cfg := engine.RuntimeConfig{
		Plan:            s.plan,
		Fragment:        frag,
		Instance:        idx,
		Ctx:             ectx,
		Tr:              h.tr,
		Node:            node,
		BufferTuples:    h.grid.BufferTuples,
		CheckpointEvery: h.grid.CheckpointEvery,
		// Only a session's Responder, or its failover (which requires
		// Adaptive), reads the recovery logs; without them nothing can
		// replay an exchange. An evaluator takes Adaptive from the
		// manifest, so every instance of a query decides alike.
		Unlogged: !h.cfg.Adaptive,
	}
	if s.elastic {
		// Recovery replays from the producer-side logs, so every
		// exchange must run the checkpoint/ack protocol; peer-loss
		// discoveries during flushes feed the failure detector.
		cfg.FT = true
		cfg.OnPeerDown = s.reportDead
	}
	if frag.Output == nil {
		cfg.Sink = s.sink
	}
	return engine.NewFragmentRuntime(cfg)
}

// remoteNodes lists the machines of the plan the host does not own, ordered
// so that consumers deploy before their producers: a producer that starts
// pumping towards a not-yet-registered consumer endpoint would lose buffers.
// Plan fragments are bottom-up (producers first), so walking them top-down
// lists every machine at the highest fragment it hosts — the consuming side
// of every exchange first.
func remoteNodes(plan *physical.Plan, h *host) []simnet.NodeID {
	var out []simnet.NodeID
	for idx := len(plan.Fragments) - 1; idx >= 0; idx-- {
		for _, n := range plan.Fragments[idx].Instances {
			if h.site(n) == nil && !slices.Contains(out, n) {
				out = append(out, n)
			}
		}
	}
	return out
}

// deployRemote asks the evaluator on a machine hosted elsewhere to
// instantiate and start its share of the plan, which it derives from the
// query text.
func (s *QuerySession) deployRemote(node simnet.NodeID, sql string) error {
	if s.host.rpc == nil {
		return qerr.Schedule("deploy", fmt.Errorf("services: plan references unknown node %q", node))
	}
	// Recorded before the request: an evaluator whose reply is lost, or
	// outrun by a cancellation, is deployed all the same and must be reclaimed.
	s.deployed = append(s.deployed, node)
	msg := &transport.Message{Kind: transport.KindDeploy, Query: sql}
	if _, err := s.host.rpc.Call(s.ctx, node, gqesService, msg); err != nil {
		if cerr := qerr.FromContext(s.ctx); cerr != nil {
			return cerr
		}
		return qerr.Schedule("deploy on "+string(node), err)
	}
	return nil
}

// onForwardedMonitor republishes a raw monitoring event an evaluator sent
// over the transport on the coordinator's bus, where the MEDs listen.
func (s *QuerySession) onForwardedMonitor(_ simnet.NodeID, m *transport.Message) {
	if m.Kind != transport.KindMonitor || m.Mon == nil {
		return
	}
	adapter := &core.MonitorAdapter{Bus: s.host.bus, Node: m.Mon.Node}
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
}

// fail records the first failure and cancels the session, taking every
// sibling fragment driver and AQP goroutine down. Context-derived errors
// pass through unclassified (a driver reporting its own interruption is not
// a new failure); anything else becomes a typed exec error and the
// cancellation cause.
func (s *QuerySession) fail(op string, err error) {
	if err == nil {
		return
	}
	if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		err = qerr.Exec(op, err)
	}
	s.failMu.Lock()
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.failMu.Unlock()
	s.cancel(err)
}

// start launches every local fragment driver (and, elastic, the recovery
// manager). A participant's session only starts; the coordinator's runs.
func (s *QuerySession) start() {
	s.rtMu.Lock()
	for id, rt := range s.runtimes {
		s.active++
		go s.drive(id, rt)
	}
	s.rtMu.Unlock()

	if s.elastic {
		go s.recoveryLoop()
		go s.heartbeatLoop()
	}
}

// run starts the session, waits for every driver, and reports the query's
// outcome: the collected rows on success, or the typed error for the first
// failure, the deadline, or an external cancellation.
func (s *QuerySession) run() ([]relation.Tuple, error) {
	s.start()
	// No timeout select here: the deadline lives on s.ctx, whose
	// cancellation interrupts every driver — including ones blocked in
	// consumer waits or paused exchanges — so waiting for them is bounded.
	s.waitDrivers()

	s.failMu.Lock()
	firstErr := s.firstErr
	s.failMu.Unlock()
	if firstErr != nil {
		// Classify through the context: a deadline outranks the derived
		// cancellation errors the interrupted drivers reported.
		if err := qerr.FromContext(s.ctx); err != nil {
			return nil, err
		}
		return nil, firstErr
	}
	return s.sink.rows, nil
}

// Close tears the session down: it cancels the context first — releasing
// parked drivers, adaptation RPCs, and subscription watchers — then reclaims
// the remote deployments and stops every owned resource. Idempotent and safe
// to call from multiple goroutines (success path and error paths may race to
// it).
func (s *QuerySession) Close() {
	s.closeOnce.Do(func() {
		s.cancel(nil)
		for _, node := range s.deployed {
			tctx, stop := context.WithTimeout(context.Background(), teardownTimeout)
			_, _ = s.host.rpc.Call(tctx, node, gqesService, &transport.Message{Kind: transport.KindTeardown})
			stop()
		}
		// Snapshot under rtMu: a live join may still be committing a new
		// runtime (its commit path re-checks ctx under the same lock, so
		// nothing is added after this point).
		s.rtMu.Lock()
		rts, meds := maps.Clone(s.runtimes), maps.Clone(s.meds)
		s.rtMu.Unlock()
		for _, rt := range rts {
			rt.Stop()
		}
		for _, m := range meds {
			m.Stop()
		}
		if s.diagnoser != nil {
			s.diagnoser.Stop()
		}
		if s.responder != nil {
			s.responder.Stop()
		}
		if s.monitored {
			s.host.tr.Unregister(s.host.node, monitorService)
		}
		// Operators remove their own runs on Close; sweeping the query's tag
		// namespace afterwards catches anything an error path left behind. An
		// untagged plan has its deployment — transport namespace and spill
		// backend alike — to itself, so its namespace is the whole backend.
		_, _ = s.host.spill.RemoveMatching(queryTagPrefix(s.plan))
	})
}

// queryTagPrefix returns the query-scoped namespace ("q17.") stamped on the
// plan's fragment IDs by Plan.Tag, or "" for untagged plans. Every spill run
// name starts with its fragment ID, so the prefix covers the whole query.
func queryTagPrefix(p *physical.Plan) string {
	if p == nil || len(p.Fragments) == 0 {
		return ""
	}
	id := p.Fragments[0].ID
	if i := strings.IndexByte(id, '.'); i >= 0 {
		return id[:i+1]
	}
	return ""
}

// stats gathers what the execution observed from every owned component.
func (s *QuerySession) stats(responseMs float64, rows int) QueryStats {
	st := QueryStats{
		ResponseMs:         responseMs,
		Rows:               rows,
		Plan:               s.plan,
		ConsumedByInstance: make(map[string]int64),
	}
	st.Failovers = s.failovers.Load()
	st.NodesJoined = s.joined.Load()
	s.rtMu.Lock()
	for id, rt := range s.runtimes {
		st.ConsumedByInstance[id] = rt.ConsumedTuples()
	}
	for _, m := range s.meds {
		raw, notif := m.Stats()
		st.RawEvents += raw
		st.MEDNotifications += notif
	}
	s.rtMu.Unlock()
	if s.diagnoser != nil {
		_, proposals := s.diagnoser.Stats()
		st.Proposals = proposals
	}
	if s.responder != nil {
		rs := s.responder.Stats()
		st.Adaptations = rs.Adaptations
		st.SkippedLate = rs.SkippedLate
		st.TuplesMoved = rs.TuplesMoved
		st.StateReplays = rs.StateReplays
		st.ProgressFallbacks = rs.ProgressFallbacks
		st.Timeline = s.responder.Timeline()
	}
	return st
}

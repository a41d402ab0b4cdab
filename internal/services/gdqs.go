package services

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/logical"
	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/plancache"
	"repro/internal/qerr"
	"repro/internal/relation"
	"repro/internal/simnet"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// GDQSConfig configures a Grid Distributed Query Service instance.
type GDQSConfig struct {
	// Adaptive enables the AQP components; disabled, the evaluators are
	// plain static GQESs — the paper's "no ad" baseline.
	Adaptive bool
	// MonitorEvery is the M1 frequency in tuples (paper default 10; 0
	// disables monitoring even when Adaptive is set — the paper's
	// "frequency 0" configuration).
	MonitorEvery int
	// MED, Diagnoser and Responder tune the adaptivity components.
	MED       core.MEDConfig
	Diagnoser core.DiagnoserConfig
	Responder core.ResponderConfig
	// Parallelism is the morsel worker-pool width of each fragment driver:
	// 0 (or 1) keeps the classic serial drivers, negative resolves to the
	// machine's GOMAXPROCS, and larger values run parallel-eligible
	// fragments on that many workers.
	Parallelism int
	// QueryTimeout bounds one query's real execution time; it becomes the
	// deadline of the session context every query runs under.
	QueryTimeout time.Duration
	// PlanCacheSize bounds the normalized-SQL plan cache: 0 means
	// plancache.DefaultCapacity, negative disables caching (every query is
	// planned from scratch).
	PlanCacheSize int
	// MaxConcurrent bounds the QuerySessions running at once
	// (DefaultMaxConcurrent when 0); arrivals beyond it queue FIFO.
	MaxConcurrent int
	// MaxQueue bounds the admission queue (DefaultMaxQueue when 0); arrivals
	// beyond it are rejected with qerr.ErrRejected.
	MaxQueue int
	// QueueTimeout bounds how long one query may wait for admission (real
	// time); 0 means the wait is bounded only by the query's context.
	QueueTimeout time.Duration
	// Elastic enables crash recovery and live membership: the engine runs
	// its exactly-once commit protocol, sessions watch for evaluator death
	// (peer-loss, heartbeats, membership events) and fail work over to
	// survivors, and evaluators registered mid-query are admitted into
	// running stateless fragments. Requires Adaptive (recovery deploys
	// through the Responder) and forces serial fragment drivers.
	Elastic bool
	// MemoryBudgetBytes caps each query's stateful-operator memory: on
	// breach, hash joins and aggregates grace-hash-spill partitions to the
	// storage backend and sorts switch to external merge runs. 0 means
	// unbudgeted.
	MemoryBudgetBytes int64
	// SpillDir roots spill runs in a posix-backed directory; empty keeps
	// spills in the in-memory storage backend (fine for tests and paper-scale
	// runs, no use for actually relieving memory pressure).
	SpillDir string
}

// DefaultGDQSConfig returns an adaptive configuration with the paper's
// default parameters.
func DefaultGDQSConfig() GDQSConfig {
	return GDQSConfig{
		Adaptive:     true,
		MonitorEvery: 10,
		MED:          core.DefaultMEDConfig(),
		Diagnoser:    core.DefaultDiagnoserConfig(),
		Responder:    core.DefaultResponderConfig(),
		QueryTimeout: 5 * time.Minute,
	}
}

// queryCounter hands out process-wide query tags, so plans of concurrently
// executing queries (even through different coordinators sharing one
// cluster) never collide on the transport namespace.
var queryCounter atomic.Int64

// GDQS is the coordinator service: it parses, optimises and schedules
// queries, dynamically creates a GQES (or AGQES) on each machine the
// scheduler selected, collects the results, and — when adaptive — hosts the
// Diagnoser and Responder while each evaluating site runs its own
// MonitoringEventDetector.
type GDQS struct {
	cluster *Cluster
	// host is what the sessions run on: the coordinator node, the config and
	// the spill backend, over every machine of the cluster.
	*host

	// cache maps normalized SQL to plan templates (nil when disabled); adm
	// bounds concurrent sessions. Execute is safe for concurrent use.
	cache *plancache.Cache[*cachedPlan]
	adm   *admission
}

// NewGDQS creates the coordinator on the given node.
func NewGDQS(cluster *Cluster, node simnet.NodeID, cfg GDQSConfig) (*GDQS, error) {
	if cluster.site(node) == nil {
		// The coordinator need not be a compute or data resource.
		cluster.addSite(node, nil, nil)
	}
	if cfg.QueryTimeout <= 0 {
		cfg.QueryTimeout = 5 * time.Minute
	}
	spill, err := openSpill(cfg.SpillDir)
	if err != nil {
		return nil, err
	}
	g := &GDQS{cluster: cluster, host: &host{
		tr:    cluster.tr,
		clock: cluster.clock,
		bus:   cluster.bus,
		node:  node,
		grid:  cluster.cfg,
		cfg:   cfg,
		spill: spill,
		site:  cluster.site,
	}}
	if cfg.PlanCacheSize >= 0 {
		g.cache = plancache.New[*cachedPlan](cfg.PlanCacheSize, obs.Default().Registry())
	}
	g.adm = newAdmission(cfg.MaxConcurrent, cfg.MaxQueue, cfg.QueueTimeout, obs.Default().Registry())
	return g, nil
}

// SpillBackend returns the storage backend sessions spill to.
func (g *GDQS) SpillBackend() storage.Backend { return g.spill }

// cachedPlan is one plan-cache entry: the untagged, unbound physical plan
// template plus its parameter slots (untyped slots upgraded with the
// planner's inference, so argument type errors surface at bind time).
type cachedPlan struct {
	template *physical.Plan
	slots    []sqlparse.Slot
}

// PlanCacheStats snapshots the coordinator's plan-cache counters (zero when
// caching is disabled).
func (g *GDQS) PlanCacheStats() plancache.Stats {
	if g.cache == nil {
		return plancache.Stats{}
	}
	return g.cache.Stats()
}

// QueryStats aggregates what one execution observed; the experiment harness
// reads everything it reports from here.
type QueryStats struct {
	// ResponseMs is the query response time in paper milliseconds.
	ResponseMs float64
	Rows       int
	// Plan is the scheduled physical plan (for explain output).
	Plan *physical.Plan
	// ConsumedByInstance maps fragment instance IDs to the tuples each
	// consumed — the paper reports the slow/fast machine tuple ratio.
	ConsumedByInstance map[string]int64
	// Raw monitoring and adaptivity traffic counters (paper §3.2,
	// Overheads).
	RawEvents        int64
	MEDNotifications int64
	Proposals        int64
	Adaptations      int64
	SkippedLate      int64
	TuplesMoved      int64
	StateReplays     int64
	// ProgressFallbacks counts progress checks that used routing progress
	// because no cardinality estimate was available.
	ProgressFallbacks int64
	// Failovers counts evaluator deaths this query recovered from, and
	// NodesJoined counts evaluators admitted into it mid-flight.
	Failovers   int64
	NodesJoined int64
	// Timeline records every Responder decision with timestamps.
	Timeline []core.AdaptationEvent
}

// QueryResult is a completed query.
type QueryResult struct {
	Columns []relation.Column
	Rows    []relation.Tuple
	Stats   QueryStats
}

// Execute runs one SQL query to completion under ctx. Execute is safe for
// concurrent use: the admission controller bounds how many sessions run at
// once, queueing the rest in FIFO order, and each repeated query reuses the
// cached plan template of its normalized form. Cancelling ctx stops every
// fragment driver and adaptivity goroutine the query started and returns
// qerr.ErrCanceled; the configured QueryTimeout yields qerr.ErrTimeout the
// same way. A nil ctx runs under only the timeout.
//
// Errors carry a qerr.Kind: compilation failures are KindPlan, scheduling
// and deployment failures KindSchedule, admission failures KindAdmission
// (errors.Is(err, qerr.ErrRejected) for a full queue), and runtime failures
// KindExec or KindTransport — use errors.As with *qerr.Error (or errors.Is
// with the sentinels) to classify.
func (g *GDQS) Execute(ctx context.Context, query string) (*QueryResult, error) {
	key, template, slots, err := sqlparse.NormalizeSQL(query)
	if err != nil {
		return nil, qerr.Plan("parse", err)
	}
	return g.executeTemplate(ctx, key, template, slots, nil)
}

// executeTemplate is the serving pipeline every query goes through after
// normalization: resolve the plan template (cache or planner), clone + bind
// + tag it, pass admission, run the session.
func (g *GDQS) executeTemplate(ctx context.Context, key string, template *sqlparse.SelectStmt,
	slots []sqlparse.Slot, userArgs []sqlparse.Expr) (*QueryResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	pplan, err := g.planFor(key, template, slots, userArgs)
	if err != nil {
		return nil, err
	}
	release, err := g.adm.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	// The cluster hosts every machine, so the session deploys by function
	// call and needs no query text to send.
	return g.run(ctx, pplan, "", g.cfg.QueryTimeout)
}

// planFor resolves a normalized statement into an execution-ready (bound and
// tagged) physical plan, consulting the plan cache first.
func (g *GDQS) planFor(key string, template *sqlparse.SelectStmt,
	slots []sqlparse.Slot, userArgs []sqlparse.Expr) (*physical.Plan, error) {
	cp, terr := g.templateFor(key, template, slots)
	if terr != nil {
		// Template planning can trip over parameterisation itself (e.g. a
		// literal-only comparison with no column to infer types from). When
		// every slot still carries its stripped literal, plan the original
		// statement directly — uncached, but semantically identical — and
		// let its (more concrete) error stand otherwise.
		if sqlparse.NumUserParams(slots) > 0 {
			return nil, terr
		}
		args, err := sqlparse.BindSlots(slots, nil)
		if err != nil {
			return nil, terr
		}
		stmt, err := sqlparse.Bind(template, args)
		if err != nil {
			return nil, terr
		}
		return g.planDirect(stmt)
	}
	// Bind THIS query's slots — they carry its stripped literals; the cached
	// entry's slots hold whichever literals the template was first planned
	// from and matter only for their inferred type hints.
	eff := slots
	if len(cp.slots) == len(slots) {
		eff = append([]sqlparse.Slot(nil), slots...)
		for i := range eff {
			if eff[i].Hint == sqlparse.PAny {
				eff[i].Hint = cp.slots[i].Hint
			}
		}
	}
	return g.bindPlan(cp, eff, userArgs)
}

// templateFor returns the cached plan template for key, planning and caching
// it on a miss. Entries are keyed to the cluster's topology version, so
// plans scheduled against an outgrown Grid re-plan instead of hitting.
func (g *GDQS) templateFor(key string, template *sqlparse.SelectStmt, slots []sqlparse.Slot) (*cachedPlan, error) {
	epoch := g.cluster.Version()
	if g.cache != nil {
		if cp, ok := g.cache.Get(key, epoch); ok {
			return cp, nil
		}
	}
	cp, err := g.planTemplate(template, slots)
	if err != nil {
		return nil, err
	}
	if g.cache != nil {
		g.cache.Put(key, epoch, cp)
	}
	return cp, nil
}

// planTemplate compiles, schedules and validates a normalized statement.
// The resulting plan is a reusable template: it is never executed directly,
// only cloned, bound and tagged per execution.
func (g *GDQS) planTemplate(template *sqlparse.SelectStmt, slots []sqlparse.Slot) (*cachedPlan, error) {
	_, hints, pplan, err := compile(template, g.cluster.catalog, g.cluster.registry, g.planOptions())
	if err != nil {
		return nil, err
	}
	// Upgrade untyped (explicit `?`) slots with the planner's type
	// inference, so a wrong-typed argument fails at bind time instead of
	// deep inside an evaluator.
	out := append([]sqlparse.Slot(nil), slots...)
	for i := range out {
		if out[i].Hint == sqlparse.PAny {
			if h, ok := hints[i]; ok {
				out[i].Hint = h
			}
		}
	}
	return &cachedPlan{template: pplan, slots: out}, nil
}

// bindPlan clones the template, substitutes the execution's parameters, and
// tags the clone with a fresh query-scoped namespace. Validation is skipped:
// binding and tagging cannot change plan structure, and the template was
// validated when planned.
func (g *GDQS) bindPlan(cp *cachedPlan, slots []sqlparse.Slot, userArgs []sqlparse.Expr) (*physical.Plan, error) {
	args, err := sqlparse.BindSlots(slots, userArgs)
	if err != nil {
		return nil, qerr.Plan("bind", err)
	}
	pplan := cp.template.Clone()
	if err := pplan.BindParams(args); err != nil {
		return nil, qerr.Plan("bind", err)
	}
	pplan.Tag(fmt.Sprintf("q%d", queryCounter.Add(1)))
	return pplan, nil
}

// planDirect is the uncached compilation path for statements the template
// pipeline cannot parameterise.
func (g *GDQS) planDirect(stmt *sqlparse.SelectStmt) (*physical.Plan, error) {
	_, _, pplan, err := compile(stmt, g.cluster.catalog, g.cluster.registry, g.planOptions())
	if err != nil {
		return nil, err
	}
	pplan.Tag(fmt.Sprintf("q%d", queryCounter.Add(1)))
	return pplan, nil
}

// planOptions is what the scheduler is told about this coordinator.
func (g *GDQS) planOptions() physical.Options {
	return physical.Options{Coordinator: g.node}
}

// Explain compiles and schedules a query without executing it.
func (g *GDQS) Explain(query string) (string, error) {
	stmt, err := sqlparse.Parse(query)
	if err != nil {
		return "", err
	}
	lplan, _, pplan, err := compile(stmt, g.cluster.catalog, g.cluster.registry, g.planOptions())
	if err != nil {
		return "", err
	}
	return logical.Explain(lplan) + "\n" + pplan.Explain(), nil
}

// Package repro (griddqp) is an adaptive distributed query processor for
// simulated Grid environments, reproducing Gounaris et al., "Adapting to
// Changing Resource Performance in Grid Query Processing" (VLDB DMG 2005).
//
// It provides:
//
//   - a service-based distributed query engine in the style of OGSA-DQP:
//     a coordinator (GDQS) that parses, optimises and schedules SQL over
//     machines advertised in a resource registry, and evaluation services
//     (GQES) running iterator-model fragments connected by exchanges;
//   - intra-operator parallelism with runtime-adaptable tuple distribution;
//   - the paper's adaptivity architecture — self-monitoring operators,
//     per-site MonitoringEventDetectors, a Diagnoser and a Responder
//     communicating over an asynchronous publish/subscribe bus — able to
//     rebalance both stateless operators (prospectively or retrospectively)
//     and stateful hash joins (retrospectively, by repartitioning the
//     operator state rebuilt from exchange recovery logs);
//   - a simulated Grid substrate (virtual time, perturbable machines,
//     100 Mbps network) on which the paper's evaluation is reproduced.
//
// # Quick start
//
//	g := repro.NewGrid()
//	g.UseDemoDatabase()                        // protein tables on "data1"
//	g.AddComputeNode("ws0", 1.0)               // hosts EntropyAnalyser
//	g.AddComputeNode("ws1", 1.0)
//	coord, _ := g.NewCoordinator("coord", repro.Adaptive())
//	res, _ := coord.Query(
//	    "select EntropyAnalyser(p.sequence) from protein_sequences p")
//	fmt.Println(len(res.Rows), "rows in", res.ResponseMs, "paper-ms")
//
// Perturb a machine mid-flight with g.Perturb("ws1", repro.Slowdown(10))
// and watch the Responder shift work away from it.
package repro

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/qerr"
	"repro/internal/relation"
	"repro/internal/services"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/vtime"
	"repro/internal/ws"
)

// Value, Tuple and Column are the relational primitives of results.
type (
	Value  = relation.Value
	Tuple  = relation.Tuple
	Column = relation.Column
)

// Re-exported value constructors.
var (
	Int    = relation.Int
	Float  = relation.Float
	String = relation.String
)

// Perturbation models artificial machine load; see Slowdown, SleepInjection,
// NormalJitter and StepAt.
type Perturbation = vtime.Perturbation

// Slowdown makes every unit of work on the machine k times costlier — the
// paper's "iterate the same function multiple times" load.
func Slowdown(k float64) Perturbation { return vtime.Multiplier(k) }

// SleepInjection adds ms of extra cost before each unit of work — the
// paper's "inserting sleep() calls" load.
func SleepInjection(ms float64) Perturbation { return vtime.Sleep(ms) }

// NormalJitter draws a per-tuple slowdown from a normal distribution
// clamped to [lo, hi] (the paper's "rapid changes" scenario).
func NormalJitter(lo, hi float64, seed int64) Perturbation {
	return vtime.NewNormalMultiplier(lo, hi, seed)
}

// StepAt switches from one perturbation to another after n work units.
func StepAt(n int, before, after Perturbation) Perturbation {
	return vtime.Step{At: n, Before: before, After: after}
}

// WebService is a callable operation, invocable from queries through the
// operation_call operator. EntropyAnalyser and SequenceLength ship with the
// library; implement the interface to add your own.
type WebService = ws.Service

// GridOption customises NewGrid.
type GridOption func(*services.ClusterConfig)

// WithScale sets the real duration of one paper millisecond (default 20µs);
// all modelled costs are expressed in paper milliseconds.
func WithScale(d time.Duration) GridOption {
	return func(c *services.ClusterConfig) { c.Scale = d }
}

// Grid is a simulated Grid under construction: machines, data, services.
type Grid struct {
	cluster *services.Cluster
}

// NewGrid builds an empty simulated Grid.
func NewGrid(opts ...GridOption) *Grid {
	cfg := services.ClusterConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	return &Grid{cluster: services.NewCluster(cfg)}
}

// UseDemoDatabase adds a data node "data1" hosting the paper's demo tables
// at their evaluation cardinalities (3000 protein_sequences, 4700
// protein_interactions).
func (g *Grid) UseDemoDatabase() error {
	return g.cluster.AddDataNode("data1", dataset.Demo())
}

// AddDemoDatabaseSized is UseDemoDatabase with custom cardinalities.
func (g *Grid) AddDemoDatabaseSized(node string, sequences, interactions int) error {
	return g.cluster.AddDataNode(simnet.NodeID(node), dataset.DemoSized(sequences, interactions))
}

// AddStoredDatabaseSized adds a data node whose demo tables live as
// block-framed runs under dir on disk rather than in memory, generated
// streamingly at the given cardinalities — the tables may be far larger than
// RAM. Scans read them a block at a time, each block reserved against the
// query's memory budget while it is decoded, and results are tuple-for-tuple
// identical to AddDemoDatabaseSized at the same cardinalities.
func (g *Grid) AddStoredDatabaseSized(node, dir string, sequences, interactions int) error {
	backend, err := storage.NewPosix(dir)
	if err != nil {
		return err
	}
	store, err := dataset.DemoStored(backend, sequences, interactions)
	if err != nil {
		return err
	}
	return g.cluster.AddDataNode(simnet.NodeID(node), store)
}

// AddComputeNode registers a machine able to evaluate query fragments. It
// hosts the demo Web Services plus any extra ones given.
func (g *Grid) AddComputeNode(name string, relativeSpeed float64, extra ...WebService) error {
	reg := ws.NewRegistry(ws.Entropy{}, ws.SequenceLength{})
	for _, s := range extra {
		reg.Register(s)
	}
	return g.cluster.AddComputeNode(simnet.NodeID(name), relativeSpeed, reg)
}

// Perturb installs (or clears, with nil) an artificial load on a machine.
// It may be called while queries run; that is the point.
func (g *Grid) Perturb(node string, p Perturbation) error {
	n := g.cluster.Node(simnet.NodeID(node))
	if n == nil {
		return fmt.Errorf("griddqp: unknown node %q", node)
	}
	n.SetPerturbation(p)
	return nil
}

// KillNode crash-stops a machine, mid-query or not. Against an Elastic
// coordinator, running queries detect the death, replay the machine's
// unacknowledged work onto surviving evaluators, and complete with exact
// results; against a non-elastic coordinator they fail. Idempotent; the
// machine cannot be revived (register a new one instead).
func (g *Grid) KillNode(node string) error {
	return g.cluster.KillNode(simnet.NodeID(node))
}

// Alive reports whether a machine is registered and has not been killed.
func (g *Grid) Alive(node string) bool {
	return g.cluster.Alive(simnet.NodeID(node))
}

// CoordinatorOption customises NewCoordinator.
type CoordinatorOption func(*services.GDQSConfig)

// Adaptive enables the AQP components with the paper's default parameters.
// It sets nothing else, so every option, the adaptivity ones
// (Retrospective, AssessWithCommunication, MonitorEvery) included, takes
// effect in either order.
func Adaptive() CoordinatorOption {
	return func(c *services.GDQSConfig) { c.Adaptive = true }
}

// Elastic enables crash recovery and live cluster membership, implying
// Adaptive: evaluator death mid-query (see Grid.KillNode) is detected —
// through membership events, heartbeat probes, and peer-loss discoveries —
// and the dead machine's unacknowledged partitions are replayed from
// exchange recovery logs onto survivors, preserving exact results; compute
// nodes registered while a query runs are admitted into its stateless
// partitioned fragments with a nonzero work share, no restart. Result
// stats report Failovers and NodesJoined. Elastic runs the engine's
// commit/acknowledgement protocol on every exchange and forces serial
// fragment drivers, so it costs some throughput; see docs/OPERATIONS.md.
func Elastic() CoordinatorOption {
	return func(c *services.GDQSConfig) {
		c.Adaptive = true
		c.Elastic = true
	}
}

// Parallel sets the morsel worker-pool width of the stateless fragment
// drivers: a fragment feeding an exchange through scans, filters,
// projections and web-service calls runs its operator chain on n workers.
// Joins, aggregates, sorts and result sinks run one driver each; the plan
// parallelises them across instances. n <= 1 keeps the classic serial
// drivers; pass a negative n to use the machine's GOMAXPROCS.
func Parallel(n int) CoordinatorOption {
	return func(c *services.GDQSConfig) { c.Parallelism = n }
}

// Retrospective selects R1 response: recovery-log tuples (and hash-join
// state) are redistributed, not just future tuples. Stateful fragments
// always use R1 regardless.
func Retrospective() CoordinatorOption {
	return func(c *services.GDQSConfig) { c.Responder.Response = core.R1 }
}

// AssessWithCommunication selects A2 assessment: the Diagnoser adds the
// observed per-tuple communication cost to each clone's processing cost.
func AssessWithCommunication() CoordinatorOption {
	return func(c *services.GDQSConfig) { c.Diagnoser.Assessment = core.A2 }
}

// MonitorEvery sets the M1 monitoring frequency in tuples (paper default
// 10); 0 disables self-monitoring.
func MonitorEvery(tuples int) CoordinatorOption {
	return func(c *services.GDQSConfig) { c.MonitorEvery = tuples }
}

// QueryTimeout bounds a query's real execution time.
func QueryTimeout(d time.Duration) CoordinatorOption {
	return func(c *services.GDQSConfig) { c.QueryTimeout = d }
}

// PlanCacheSize bounds the coordinator's normalized-SQL plan cache: queries
// differing only in comparison literals share one cached plan template,
// re-bound per execution. 0 keeps the default capacity; pass a negative size
// to disable caching entirely.
func PlanCacheSize(n int) CoordinatorOption {
	return func(c *services.GDQSConfig) { c.PlanCacheSize = n }
}

// MaxConcurrentQueries bounds how many queries the coordinator runs at once;
// arrivals beyond the bound wait in FIFO order, and arrivals beyond queueCap
// are rejected immediately with ErrQueryRejected. Zero values keep the
// service defaults.
func MaxConcurrentQueries(n, queueCap int) CoordinatorOption {
	return func(c *services.GDQSConfig) {
		c.MaxConcurrent = n
		c.MaxQueue = queueCap
	}
}

// QueueTimeout bounds how long one query may wait for admission before
// failing with ErrTimeout (0: bounded only by the query's context).
func QueueTimeout(d time.Duration) CoordinatorOption {
	return func(c *services.GDQSConfig) { c.QueueTimeout = d }
}

// MemoryBudget caps each query's stateful-operator memory in bytes: hash
// joins and aggregates grace-hash-spill partitions to the coordinator's
// storage backend when the budget is breached, and sorts switch to external
// merge runs. Results are unchanged (joins and aggregates are order-free
// multisets); only memory use and speed differ. 0 disables budgeting.
func MemoryBudget(bytes int64) CoordinatorOption {
	return func(c *services.GDQSConfig) { c.MemoryBudgetBytes = bytes }
}

// SpillDir roots spill runs (and therefore larger-than-memory query state)
// in a posix directory instead of the default in-memory backend.
func SpillDir(dir string) CoordinatorOption {
	return func(c *services.GDQSConfig) { c.SpillDir = dir }
}

// Typed query-failure sentinels, re-exported from the internal error layer
// so callers can classify QueryContext failures with errors.Is. ErrCanceled
// also unwraps to context.Canceled and ErrTimeout to
// context.DeadlineExceeded.
var (
	ErrCanceled = qerr.ErrCanceled
	ErrTimeout  = qerr.ErrTimeout
	// ErrQueryRejected reports that the coordinator's admission queue was
	// full when the query arrived.
	ErrQueryRejected = qerr.ErrRejected
)

// Coordinator is a GDQS handle.
type Coordinator struct {
	gdqs *services.GDQS
}

// NewCoordinator creates the query coordinator on the named machine. With
// no options it runs the static (non-adaptive) system.
func (g *Grid) NewCoordinator(node string, opts ...CoordinatorOption) (*Coordinator, error) {
	gd, err := services.NewGDQS(g.cluster, simnet.NodeID(node), coordinatorConfig(opts))
	if err != nil {
		return nil, err
	}
	return &Coordinator{gdqs: gd}, nil
}

// coordinatorConfig applies opts to the paper's default parameters with
// adaptivity off: the adaptivity settings lie inert until Adaptive or
// Elastic switches them on, so no option resets another.
func coordinatorConfig(opts []CoordinatorOption) services.GDQSConfig {
	cfg := services.DefaultGDQSConfig()
	cfg.Adaptive = false
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Result is a completed query.
type Result struct {
	Columns []Column
	Rows    []Tuple
	// ResponseMs is the response time in paper milliseconds.
	ResponseMs float64
	// Stats exposes the full adaptivity counters.
	Stats services.QueryStats
}

// Query executes a SQL statement to completion under the coordinator's
// configured timeout.
func (c *Coordinator) Query(sql string) (*Result, error) {
	return c.QueryContext(context.Background(), sql)
}

// QueryContext executes a SQL statement to completion under ctx: cancelling
// it stops every fragment driver and adaptivity goroutine the query started.
// Use errors.Is with qerr.ErrCanceled / qerr.ErrTimeout (or errors.As with
// *qerr.Error) to classify failures.
func (c *Coordinator) QueryContext(ctx context.Context, sql string) (*Result, error) {
	res, err := c.gdqs.Execute(ctx, sql)
	if err != nil {
		return nil, err
	}
	return &Result{
		Columns:    res.Columns,
		Rows:       res.Rows,
		ResponseMs: res.Stats.ResponseMs,
		Stats:      res.Stats,
	}, nil
}

// Explain returns the logical and scheduled physical plan of a query
// without executing it.
func (c *Coordinator) Explain(sql string) (string, error) {
	return c.gdqs.Explain(sql)
}

// Stmt is a prepared statement: parsed, normalized and planned once, then
// executed repeatedly with different arguments. Safe for concurrent Execute.
type Stmt struct {
	stmt *services.Stmt
}

// Prepare compiles a SQL statement for repeated execution. The statement may
// contain `?` parameter markers in WHERE/HAVING comparisons; each Execute
// supplies one Go value (int, float64 or string) per marker, in statement
// order. Repeated Queries with literal-only differences share the same
// cached plan even without Prepare — preparing simply skips the per-call
// parse and normalize and surfaces planning errors early.
func (c *Coordinator) Prepare(sql string) (*Stmt, error) {
	s, err := c.gdqs.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{stmt: s}, nil
}

// NumParams reports how many `?` arguments Execute expects.
func (s *Stmt) NumParams() int { return s.stmt.NumParams() }

// Execute runs the prepared statement under ctx with the given arguments.
// Admission, cancellation and error semantics match QueryContext.
func (s *Stmt) Execute(ctx context.Context, args ...any) (*Result, error) {
	res, err := s.stmt.Execute(ctx, args...)
	if err != nil {
		return nil, err
	}
	return &Result{
		Columns:    res.Columns,
		Rows:       res.Rows,
		ResponseMs: res.Stats.ResponseMs,
		Stats:      res.Stats,
	}, nil
}

// PlanCacheStats snapshots the coordinator's plan-cache counters: hits,
// misses, evictions and current size (zeros when caching is disabled).
type PlanCacheStats = plancache.Stats

// PlanCacheStats reports how the coordinator's plan cache is doing.
func (c *Coordinator) PlanCacheStats() PlanCacheStats {
	return c.gdqs.PlanCacheStats()
}

// MetricsHandler serves the process-wide observability layer over HTTP:
// GET /metrics is the Prometheus text exposition of every engine and
// adaptivity counter, and GET /timeline is the JSON adaptation timeline
// (med-notify → proposal → outcome events; ?fragment= and ?since= filter).
// Mount it on any listener, e.g.
//
//	go http.ListenAndServe(":9090", repro.MetricsHandler())
func MetricsHandler() http.Handler {
	return obs.Handler(obs.Default())
}

package services

import (
	"context"
	"time"

	"repro/internal/bus"
	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/logical"
	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/qerr"
	"repro/internal/registry"
	"repro/internal/simnet"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/vtime"
	"repro/internal/ws"
)

// host is what one process contributes to the QuerySessions it runs. There
// is one kind of session and three hosts filling this in: a GDQS on a
// Cluster owns every machine of the Grid, a RemoteCoordinator owns only the
// coordinator's machine, and an Evaluator owns only its own. A session
// builds the fragment instances of the machines its host owns by function
// call and reaches every other machine by message, so where a query runs is
// decided by what the process hosts, never by an option. Built once per
// coordinator or evaluator, shared by all its sessions.
type host struct {
	tr    transport.Transport
	clock *vtime.Clock
	// bus carries the AQP notifications of the sessions coordinated here
	// (nil on an evaluator, which hosts no AQP component).
	bus *bus.Bus
	// node is the query coordinator: it hosts the top fragment, the result
	// sink and the adaptivity components. A host that does not own it runs
	// sessions as a participant — local fragment instances only.
	node simnet.NodeID
	// grid is the exchange tuning every participant agrees on.
	grid ClusterConfig
	cfg  GDQSConfig
	// spill is the storage backend every session spills to.
	spill storage.Backend
	// site returns the machine with the given ID when this process hosts it,
	// nil otherwise.
	site func(simnet.NodeID) *site
	// rpc carries the deploy and teardown requests to machines hosted
	// elsewhere; nil when the host owns the whole Grid.
	rpc *transport.Caller
}

// site is one machine hosted in this process: what a fragment instance
// placed on it executes against. Immutable once published.
type site struct {
	node     *simnet.Node
	store    *dataset.Store
	services *ws.Registry
	// monitor is where the machine's engines send raw M1/M2 events: the
	// coordinator's bus, directly or forwarded over the transport.
	monitor engine.MonitorSink
}

// openSpill opens the spill backend of one process: posix runs under dir, or
// the in-memory backend when dir is empty.
func openSpill(dir string) (storage.Backend, error) {
	if dir == "" {
		return storage.NewMemory(), nil
	}
	return storage.NewPosix(dir)
}

// run deploys and executes a scheduled plan inside a QuerySession under ctx
// and the timeout. sql is the query text deploy requests carry to machines
// hosted elsewhere (unused when the host owns every machine of the plan).
func (h *host) run(ctx context.Context, plan *physical.Plan, sql string, timeout time.Duration) (*QueryResult, error) {
	o := obs.Default()
	open := o.Gauge(obs.MSessionsOpen)
	open.Add(1)
	defer open.Add(-1)
	start := time.Now()
	ctx, stopTimeout := context.WithTimeout(ctx, timeout)
	defer stopTimeout()
	s, err := newQuerySession(ctx, h, plan, sql)
	if err != nil {
		o.Counter(obs.Label(obs.MQueries, "outcome", "error")).Inc()
		return nil, err
	}
	defer s.Close()

	rows, err := s.run()
	if err != nil {
		o.Counter(obs.Label(obs.MQueries, "outcome", "error")).Inc()
		return nil, err
	}
	o.Counter(obs.Label(obs.MQueries, "outcome", "ok")).Inc()
	return &QueryResult{
		Columns: plan.Top().Root.OutSchema().Columns(),
		Rows:    rows,
		Stats:   s.stats(h.clock.MsOf(time.Since(start)), len(rows)),
	}, nil
}

// compile lowers a parsed statement to a scheduled, validated physical plan.
// It also returns the logical plan (for explain output) and the parameter
// types the planner inferred for untyped slots.
func compile(stmt *sqlparse.SelectStmt, cat *catalog.Catalog, reg *registry.Registry,
	opts physical.Options) (logical.Node, map[int]sqlparse.ParamType, *physical.Plan, error) {
	lplan, hints, err := logical.PlanParams(stmt, cat)
	if err != nil {
		return nil, nil, nil, qerr.Plan("plan", err)
	}
	pplan, err := physical.Schedule(lplan, reg, opts)
	if err != nil {
		return nil, nil, nil, qerr.Schedule("schedule", err)
	}
	if err := pplan.Validate(); err != nil {
		return nil, nil, nil, qerr.Schedule("validate", err)
	}
	return lplan, hints, pplan, nil
}

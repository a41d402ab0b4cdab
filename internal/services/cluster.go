// Package services implements the Grid service layer of OGSA-DQP (paper
// §2): the GDQS (Grid Distributed Query Service) that accepts queries,
// compiles and schedules them, and dynamically creates evaluation services
// on the selected machines; and the AGQESs (Adaptive Grid Query Evaluation
// Services), each hosting the query engine plus the adaptivity components.
//
// There is one query execution, QuerySession, and three hosts of it that
// differ only in which machines their process owns: GDQS on a Cluster (a
// complete simulated Grid — machines, network, notification bus, registries
// — inside one process), RemoteCoordinator (the coordinator's machine of a
// multi-process Manifest deployment) and Evaluator (one other machine of
// it). A session builds the fragment instances of owned machines by
// function call and reaches every other machine by message.
package services

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bus"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/relation"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/vtime"
	"repro/internal/ws"
)

// ClusterConfig sets the physical characteristics of the simulated Grid.
type ClusterConfig struct {
	// Scale is the real duration of one paper millisecond
	// (vtime.DefaultScale when zero).
	Scale time.Duration
	// Costs are the engine's operator cost parameters.
	Costs engine.Costs
	// Buckets is the hash-policy bucket count.
	Buckets int
	// BufferTuples and CheckpointEvery tune the exchanges.
	BufferTuples    int
	CheckpointEvery int
}

// Cluster is a simulated Grid: nodes, network, transport, notification bus,
// and the resource registry / metadata catalog the GDQS consults.
type Cluster struct {
	cfg   ClusterConfig
	clock *vtime.Clock
	net   *simnet.Network
	tr    *transport.InProc
	bus   *bus.Bus

	registry *registry.Registry
	catalog  *catalog.Catalog

	// sites are the machines of the Grid — all hosted in this process.
	mu    sync.Mutex
	sites map[simnet.NodeID]*site

	// version counts topology changes; cached plans are keyed to it, so a
	// Grid gaining or losing resources invalidates every cached placement.
	version atomic.Uint64
}

// withDefaults fills the unset physical characteristics.
func (cfg ClusterConfig) withDefaults() ClusterConfig {
	if cfg.Scale <= 0 {
		cfg.Scale = vtime.DefaultScale
	}
	if cfg.Costs == (engine.Costs{}) {
		cfg.Costs = engine.DefaultCosts()
	}
	if cfg.Buckets <= 0 {
		cfg.Buckets = engine.DefaultBuckets
	}
	return cfg
}

// NewCluster builds an empty simulated Grid.
func NewCluster(cfg ClusterConfig) *Cluster {
	cfg = cfg.withDefaults()
	clock := vtime.NewClock(cfg.Scale)
	net := simnet.NewNetwork(clock)
	c := &Cluster{
		cfg:      cfg,
		clock:    clock,
		net:      net,
		tr:       transport.NewInProc(net),
		bus:      bus.New(clock, net),
		registry: registry.New(),
		catalog:  catalog.New(),
		sites:    make(map[simnet.NodeID]*site),
	}
	return c
}

// Network exposes the simulated network (experiments perturb nodes through
// it).
func (c *Cluster) Network() *simnet.Network { return c.net }

// Bus exposes the notification bus (examples subscribe to watch
// adaptations happen).
func (c *Cluster) Bus() *bus.Bus { return c.bus }

// Registry exposes the resource registry.
func (c *Cluster) Registry() *registry.Registry { return c.registry }

// Catalog exposes the metadata catalog.
func (c *Cluster) Catalog() *catalog.Catalog { return c.catalog }

// Node returns a machine by ID, or nil.
func (c *Cluster) Node(id simnet.NodeID) *simnet.Node { return c.net.Node(id) }

// addSite registers a new machine hosting the given tables and Web Services
// (either may be nil).
func (c *Cluster) addSite(id simnet.NodeID, store *dataset.Store, services *ws.Registry) {
	st := &site{
		node:     c.net.AddNode(id),
		store:    store,
		services: services,
		monitor:  &core.MonitorAdapter{Bus: c.bus, Node: id},
	}
	c.mu.Lock()
	c.sites[id] = st
	c.mu.Unlock()
}

// site returns a machine of the Grid, or nil.
func (c *Cluster) site(id simnet.NodeID) *site {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sites[id]
}

// AddDataNode registers a machine exposing the store's tables as Grid Data
// Services, and advertises the table metadata in the catalog — the role the
// resource registries and OGSA-DAI wrappers play in the paper.
func (c *Cluster) AddDataNode(id simnet.NodeID, store *dataset.Store) error {
	c.addSite(id, store, nil)
	if err := advertiseData(c.catalog, c.registry, id, store); err != nil {
		return err
	}
	c.version.Add(1)
	return nil
}

// advertiseData publishes a data machine: its tables' metadata in the
// catalog, the machine in the resource registry.
func advertiseData(cat *catalog.Catalog, reg *registry.Registry, id simnet.NodeID, store *dataset.Store) error {
	var tables []string
	for _, name := range store.Names() {
		tbl, err := store.Table(name)
		if err != nil {
			return err
		}
		if err := cat.PutTable(catalog.TableMeta{
			Name:          tbl.Name,
			Schema:        tbl.Schema,
			Cardinality:   tbl.Cardinality(),
			AvgTupleBytes: tbl.AvgTupleBytes(),
			TotalBytes:    tbl.TotalBytes(),
			Node:          id,
		}); err != nil {
			return err
		}
		tables = append(tables, tbl.Name)
	}
	reg.RegisterData(id, tables...)
	return nil
}

// advertiseCompute publishes an evaluation machine: its speed claim in the
// resource registry, its Web Service operations in the catalog.
func advertiseCompute(cat *catalog.Catalog, reg *registry.Registry, id simnet.NodeID, speed float64, services *ws.Registry) error {
	if err := reg.RegisterCompute(id, speed); err != nil {
		return err
	}
	for _, svc := range services.Services() {
		if err := cat.PutFunction(catalog.FunctionMeta{
			Name:       svc.Name(),
			ArgTypes:   svc.ArgTypes(),
			ResultType: svc.ResultType(),
			CostMs:     svc.BaseCostMs(),
		}); err != nil {
			return err
		}
	}
	return nil
}

// Version is the topology epoch: it changes whenever resources join the
// Grid, invalidating plan-cache entries scheduled against the old topology.
func (c *Cluster) Version() uint64 { return c.version.Load() }

// AddComputeNode registers a machine able to host evaluation services, with
// the given static speed claim and callable Web Service operations.
func (c *Cluster) AddComputeNode(id simnet.NodeID, relativeSpeed float64, services *ws.Registry) error {
	if services == nil {
		services = ws.NewRegistry()
	}
	c.addSite(id, nil, services)
	if err := advertiseCompute(c.catalog, c.registry, id, relativeSpeed, services); err != nil {
		return err
	}
	c.version.Add(1)
	obs.Default().Gauge(obs.MEvaluatorsLive).Add(1)
	c.bus.Publish("cluster", id, core.TopicMembership,
		core.NodeEvent{Kind: "join", Node: id, Speed: relativeSpeed})
	return nil
}

// KillNode crash-stops a machine: from this moment every message to or from
// it fails with transport.NodeDownError, and any commit section it had not
// entered never runs. The topology epoch advances (cached plans scheduled
// onto the dead machine re-plan instead of hitting) and a "leave" event is
// published on core.TopicMembership, which elastic sessions treat as an
// authoritative failure diagnosis. Idempotent: killing a dead node is a
// no-op.
func (c *Cluster) KillNode(id simnet.NodeID) error {
	node := c.net.Node(id)
	if node == nil {
		return fmt.Errorf("services: kill of unknown node %q", id)
	}
	if !node.Alive() {
		return nil
	}
	node.Fail()
	c.version.Add(1)
	if c.site(id).services != nil {
		obs.Default().Gauge(obs.MEvaluatorsLive).Add(-1)
	}
	obs.Default().Timeline().Append(obs.Event{
		Kind:   obs.KindMembership,
		AtMs:   c.clock.NowMs(),
		Node:   string(id),
		Detail: "leave",
	})
	c.bus.Publish("cluster", id, core.TopicMembership, core.NodeEvent{Kind: "leave", Node: id})
	return nil
}

// Alive reports whether a machine is registered and has not crash-stopped.
func (c *Cluster) Alive(id simnet.NodeID) bool {
	node := c.net.Node(id)
	return node != nil && node.Alive()
}

// Close shuts the cluster's bus down.
func (c *Cluster) Close() {
	c.bus.Close()
}

// rowSink collects the result rows. The top fragment has one instance and a
// serial driver, so Send has a single caller; the session reads rows only
// after that driver has returned.
type rowSink struct{ rows []relation.Tuple }

func (s *rowSink) Send(t relation.Tuple) error {
	s.rows = relation.AppendDoubling(s.rows, t)
	return nil
}

func (s *rowSink) Close() error { return nil }

// Package exp reproduces the paper's evaluation (§3.2): it assembles the
// calibrated simulated Grid — one data node, two or three WS/compute nodes,
// a coordinator on a 100 Mbps network — runs the two evaluation queries
// under the paper's perturbation scenarios, and regenerates every table and
// figure as paper-vs-measured comparisons.
//
// Calibration: the engine's cost parameters (see engine.DefaultCosts and
// Calibration below) are chosen so that the *unperturbed* cost mix matches
// what the paper's measured ratios imply — a large fixed service-creation
// cost (Globus Toolkit 3), per-tuple retrieval/serialisation costs that
// make "data communication and retrieval contribute to the total response
// time", and a 10 paper-ms EntropyAnalyser call. All results are reported
// normalised to the "no adaptivity / no imbalance" run of the same query,
// exactly as in the paper, so the absolute scale cancels.
package exp

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/services"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/vtime"
	"repro/internal/ws"
)

// Query names the two evaluation queries.
const (
	// Q1 retrieves 3000 protein sequences and analyses each through the
	// EntropyAnalyser Web Service: computation-intensive, WS-dominated.
	Q1 = "select EntropyAnalyser(p.sequence) from protein_sequences p"
	// Q2 joins protein_sequences with the 4700-tuple protein_interactions:
	// the expensive operator is a traditional (stateful) hash join.
	Q2 = "select i.ORF2 from protein_sequences p, protein_interactions i where i.ORF1=p.ORF"
)

// Calibration holds the cost parameters of the simulated testbed.
type Calibration struct {
	Costs engine.Costs
	// EntropyCostMs is the unperturbed per-call WS cost.
	EntropyCostMs float64
	// R1LogAppendMs replaces Costs.LogAppendMs when the retrospective
	// response mode is configured: the paper measures log management to be
	// roughly three times costlier under R1.
	R1LogAppendMs float64
}

// DefaultCalibration returns the parameters used for EXPERIMENTS.md.
func DefaultCalibration() Calibration {
	return Calibration{
		Costs:         engine.DefaultCosts(),
		EntropyCostMs: 10,
		R1LogAppendMs: 1.3,
	}
}

// Config describes one experimental run.
type Config struct {
	// Query is Q1 or Q2 (any SQL accepted).
	Query string
	// Sequences and Interactions size the demo tables; zero selects the
	// paper's defaults (3000 / 4700).
	Sequences    int
	Interactions int
	// WSNodes is the number of compute machines evaluating the expensive
	// operator (paper default 2; Fig. 4 uses 3).
	WSNodes int
	// Adaptive toggles the AQP components (the "ad" / "no ad" columns).
	Adaptive bool
	// Assessment and Response select the adaptivity policies.
	Assessment core.Assessment
	Response   core.Response
	// MonitorEvery is the M1 frequency in tuples; 0 disables monitoring.
	MonitorEvery int
	// Perturb assigns an artificial load to WS node i.
	Perturb map[int]vtime.Perturbation
	// Parallelism is the morsel worker-pool width of every fragment driver
	// (0 falls back to the package-level DefaultParallelism; 1 is serial).
	Parallelism int
	// Scale is the real duration of a paper millisecond (default 10µs).
	Scale time.Duration
	// Calibration overrides the default testbed parameters when non-nil.
	Calibration *Calibration
	// Elastic enables evaluator crash recovery and live membership
	// (DESIGN.md §5h); it only takes effect together with Adaptive.
	Elastic bool
	// OnCluster, when non-nil, runs against the assembled cluster after
	// every node is registered and before the query starts — the hook the
	// Recovery experiment uses to arm fault injection and mid-query joins.
	OnCluster func(*services.Cluster)

	// Ablation knobs (zero selects the paper defaults).
	MED             *core.MEDConfig
	ThresA          float64
	Buckets         int
	BufferTuples    int
	CheckpointEvery int
}

func (c Config) withDefaults() Config {
	if c.Query == "" {
		c.Query = Q1
	}
	if c.Sequences == 0 {
		c.Sequences = dataset.DefaultSequences
	}
	if c.Interactions == 0 {
		c.Interactions = dataset.DefaultInteractions
	}
	if c.WSNodes == 0 {
		c.WSNodes = 2
	}
	if c.Assessment == 0 {
		c.Assessment = core.A1
	}
	if c.Response == 0 {
		c.Response = core.R2
	}
	if c.MonitorEvery == 0 && c.Adaptive {
		c.MonitorEvery = 10
	}
	if c.Scale == 0 {
		c.Scale = 10 * time.Microsecond
	}
	if c.Calibration == nil {
		cal := DefaultCalibration()
		c.Calibration = &cal
	}
	return c
}

// DefaultParallelism is applied to every run whose Config leaves Parallelism
// unset — the hook for the dqp-experiments -parallel flag (negative values
// resolve to GOMAXPROCS inside the services layer).
var DefaultParallelism int

// DefaultMemoryBudget and DefaultSpillDir are applied to every run — the
// hooks for the dqp-experiments -mem-budget and -spill-dir flags, so the
// whole suite can be replayed under memory governance.
var (
	DefaultMemoryBudget int64
	DefaultSpillDir     string
)

// DefaultTableRows and DefaultTableBackend are the hooks for the
// dqp-experiments -table-rows and -table-backend flags. A nonzero DefaultTableRows overrides every run's protein_sequences
// cardinality (protein_interactions scales proportionally), so the whole
// suite can be replayed against much larger tables. A non-empty
// DefaultTableBackend generates the tables as block-framed stored runs
// instead of in-memory slices: "memory" stores them on the in-memory
// backend, "posix" on a temporary on-disk directory removed after the run,
// and any other value is taken as a posix directory path to reuse.
var (
	DefaultTableRows    int
	DefaultTableBackend string
)

// buildStore materialises the demo tables for one run, honouring the
// -table-rows / -table-backend overrides. cleanup is non-nil when a
// temporary on-disk backend must be removed after the run.
func buildStore(sequences, interactions int) (store *dataset.Store, cleanup func(), err error) {
	if DefaultTableRows > 0 {
		ratio := float64(interactions) / float64(max(sequences, 1))
		sequences = DefaultTableRows
		interactions = int(float64(DefaultTableRows) * ratio)
	}
	if DefaultTableBackend == "" {
		return dataset.DemoSized(sequences, interactions), nil, nil
	}
	var backend storage.Backend
	switch DefaultTableBackend {
	case "memory":
		backend = storage.NewMemory()
	case "posix":
		dir, derr := os.MkdirTemp("", "dqp-tables-")
		if derr != nil {
			return nil, nil, fmt.Errorf("exp: table dir: %w", derr)
		}
		cleanup = func() { os.RemoveAll(dir) }
		backend, err = storage.NewPosix(dir)
	default:
		backend, err = storage.NewPosix(DefaultTableBackend)
	}
	if err != nil {
		if cleanup != nil {
			cleanup()
		}
		return nil, nil, err
	}
	store, err = dataset.DemoStored(backend, sequences, interactions)
	if err != nil {
		if cleanup != nil {
			cleanup()
		}
		return nil, nil, err
	}
	return store, cleanup, nil
}

// WSNodeID names the i-th compute machine.
func WSNodeID(i int) simnet.NodeID { return simnet.NodeID(fmt.Sprintf("ws%d", i)) }

// Result is one completed run.
type Result struct {
	ResponseMs float64
	Stats      services.QueryStats
	// ConsumedByWS reports, per WS node index, the tuples its partitioned
	// fragment instance evaluated.
	ConsumedByWS []int64
	// Rows is the full result set, retained so the Recovery experiment can
	// compare faulted runs against unfaulted ones tuple for tuple.
	Rows []relation.Tuple
}

// Run executes one configuration to completion.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	cal := *cfg.Calibration
	costs := cal.Costs
	if cfg.Adaptive && cfg.Response == core.R1 {
		costs.LogAppendMs = cal.R1LogAppendMs
	}
	buckets := cfg.Buckets
	if buckets <= 0 {
		buckets = engine.DefaultBuckets
	}
	bufferTuples := cfg.BufferTuples
	if bufferTuples <= 0 {
		bufferTuples = engine.DefaultBufferTuples
	}
	checkpointEvery := cfg.CheckpointEvery
	if checkpointEvery <= 0 {
		checkpointEvery = engine.DefaultCheckpointEvery
	}
	cluster := services.NewCluster(services.ClusterConfig{
		Scale:           cfg.Scale,
		Costs:           costs,
		Buckets:         buckets,
		BufferTuples:    bufferTuples,
		CheckpointEvery: checkpointEvery,
	})
	defer cluster.Close()
	store, storeCleanup, err := buildStore(cfg.Sequences, cfg.Interactions)
	if err != nil {
		return nil, err
	}
	if storeCleanup != nil {
		defer storeCleanup()
	}
	if err := cluster.AddDataNode("data1", store); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.WSNodes; i++ {
		reg := ws.NewRegistry(ws.Entropy{CostMs: cal.EntropyCostMs}, ws.SequenceLength{})
		if err := cluster.AddComputeNode(WSNodeID(i), 1.0, reg); err != nil {
			return nil, err
		}
	}
	for i, p := range cfg.Perturb {
		node := cluster.Node(WSNodeID(i))
		if node == nil {
			return nil, fmt.Errorf("exp: perturbation for unknown WS node %d", i)
		}
		node.SetPerturbation(p)
	}
	if cfg.OnCluster != nil {
		cfg.OnCluster(cluster)
	}
	med := core.DefaultMEDConfig()
	if cfg.MED != nil {
		med = *cfg.MED
	}
	thresA := cfg.ThresA
	if thresA == 0 {
		thresA = 0.20
	}
	parallelism := cfg.Parallelism
	if parallelism == 0 {
		parallelism = DefaultParallelism
	}
	gcfg := services.GDQSConfig{
		Adaptive:          cfg.Adaptive,
		Elastic:           cfg.Elastic,
		MonitorEvery:      cfg.MonitorEvery,
		MED:               med,
		Diagnoser:         core.DiagnoserConfig{ThresA: thresA, Assessment: cfg.Assessment},
		Responder:         core.ResponderConfig{Response: cfg.Response, MaxProgress: 0.9},
		Parallelism:       parallelism,
		QueryTimeout:      10 * time.Minute,
		MemoryBudgetBytes: DefaultMemoryBudget,
		SpillDir:          DefaultSpillDir,
	}
	g, err := services.NewGDQS(cluster, "coord", gcfg)
	if err != nil {
		return nil, err
	}
	res, err := g.Execute(context.Background(), cfg.Query)
	if err != nil {
		return nil, err
	}
	out := &Result{
		ResponseMs:   res.Stats.ResponseMs,
		Stats:        res.Stats,
		ConsumedByWS: make([]int64, cfg.WSNodes),
		Rows:         res.Rows,
	}
	// Read the consumption split from the plan's partitioned fragment (the
	// one evaluating the expensive operator across the WS nodes).
	for _, frag := range res.Stats.Plan.Fragments {
		if !frag.Partitioned {
			continue
		}
		for i := range frag.Instances {
			if i < len(out.ConsumedByWS) {
				out.ConsumedByWS[i] = res.Stats.ConsumedByInstance[frag.InstanceID(i)]
			}
		}
	}
	return out, nil
}

package chaos_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/services"
	"repro/internal/simnet"
	"repro/internal/testenv"
	"repro/internal/ws"
)

// budgetedElasticGrid is elasticGrid with a memory budget small enough that
// the join's build side spills on every evaluator.
func budgetedElasticGrid(t *testing.T, nodes []simnet.NodeID, seqs, ints int, budget int64) (*services.Cluster, *services.GDQS) {
	t.Helper()
	cluster := services.NewCluster(services.ClusterConfig{
		Scale: 10 * time.Microsecond,
		Costs: engine.Costs{ScanMs: 1, FilterMs: 0.01, ProjectMs: 0.01,
			JoinBuildMs: 0.1, JoinProbeMs: 0.5, StartupMs: 50},
		BufferTuples:    25,
		CheckpointEvery: 25,
		Buckets:         64,
	})
	if err := cluster.AddDataNode("data1", dataset.DemoSized(seqs, ints)); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if err := cluster.AddComputeNode(n, 1.0,
			ws.NewRegistry(ws.Entropy{CostMs: 5}, ws.SequenceLength{})); err != nil {
			t.Fatal(err)
		}
	}
	cfg := services.DefaultGDQSConfig()
	cfg.Elastic = true
	cfg.QueryTimeout = 60 * time.Second
	cfg.MemoryBudgetBytes = budget
	testenv.Force(t, &cfg.MemoryBudgetBytes, &cfg.Parallelism)
	g, err := services.NewGDQS(cluster, "coord", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	return cluster, g
}

// parallelBudgetedGrid is budgetedElasticGrid without elasticity: each
// fragment driver runs a width-4 morsel worker pool under the budget, so a
// crash mid-query must fail the query with a typed error instead of
// recovering — and must still tear down every worker's spill state.
func parallelBudgetedGrid(t *testing.T, nodes []simnet.NodeID, seqs, ints int, budget int64) (*services.Cluster, *services.GDQS) {
	t.Helper()
	cluster := services.NewCluster(services.ClusterConfig{
		Scale: 10 * time.Microsecond,
		Costs: engine.Costs{ScanMs: 1, FilterMs: 0.01, ProjectMs: 0.01,
			JoinBuildMs: 0.1, JoinProbeMs: 0.5, StartupMs: 50},
		BufferTuples:    25,
		CheckpointEvery: 25,
		Buckets:         64,
	})
	if err := cluster.AddDataNode("data1", dataset.DemoSized(seqs, ints)); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if err := cluster.AddComputeNode(n, 1.0,
			ws.NewRegistry(ws.Entropy{CostMs: 5}, ws.SequenceLength{})); err != nil {
			t.Fatal(err)
		}
	}
	// Adaptive stays on (KillAfterEvents needs monitoring traffic to pick
	// its kill point) but Elastic stays off: no recovery, only teardown.
	cfg := services.DefaultGDQSConfig()
	cfg.QueryTimeout = 60 * time.Second
	cfg.MemoryBudgetBytes = budget
	cfg.Parallelism = 4
	testenv.Force(t, &cfg.MemoryBudgetBytes, &cfg.Parallelism)
	g, err := services.NewGDQS(cluster, "coord", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	return cluster, g
}

// TestKillEvaluatorMidParallelSpill covers the spill teardown path at
// Parallelism 4 under a 4KiB budget: the scans run four morsel workers
// each, while every join instance runs on its one driver and spills its own
// table. The unfaulted run must be exact; the run with an evaluator
// crash-stopped mid-query must fail with a typed error (non-elastic sessions
// don't recover), leak zero spill runs, and return mem_inflight_bytes to
// zero — the interrupted drivers must release every reservation.
func TestKillEvaluatorMidParallelSpill(t *testing.T) {
	freshObs(t)
	nodes := []simnet.NodeID{"ws0", "ws1", "ws2"}
	want := reference(t, nodes, 300, 400, q2)
	o := obs.Default()

	// Unfaulted width-4 budgeted run: byte-identical rows, real spill.
	_, g := parallelBudgetedGrid(t, nodes, 300, 400, 4096)
	b0 := o.Counter(obs.MSpillBytes).Value()
	res, err := g.Execute(context.Background(), q2)
	if err != nil {
		t.Fatalf("parallel budgeted execute: %v", err)
	}
	assertExact(t, res.Rows, want)
	if o.Counter(obs.MSpillBytes).Value() == b0 {
		t.Fatal("4KiB budget never spilled at width 4")
	}

	// Faulted run: the kill must land mid-query (retry when the query wins
	// the race), fail typed, and leave no spill state behind.
	for attempt := 0; ; attempt++ {
		cluster, g := parallelBudgetedGrid(t, nodes, 300, 400, 4096)
		inj := chaos.New(cluster)
		inj.KillAfterEvents("ws1", "ws1", 2)
		_, err := g.Execute(context.Background(), q2)
		inj.Close()
		if err != nil {
			if kind := qerr.KindOf(err); kind == qerr.KindUnknown {
				t.Fatalf("kill mid-parallel-spill produced an unclassified error: %v", err)
			}
			runs, lerr := g.SpillBackend().List()
			if lerr != nil {
				t.Fatal(lerr)
			}
			if len(runs) != 0 {
				t.Fatalf("spill backend leaks runs after failed parallel query: %v", runs)
			}
			if n := o.Gauge(obs.MMemInflight).Value(); n != 0 {
				t.Fatalf("mem_inflight_bytes = %d after failed parallel query, want 0", n)
			}
			return
		}
		if attempt == 4 {
			t.Fatal("kill landed after query completion in 5 consecutive attempts")
		}
	}
}

// TestKillEvaluatorMidSpill crash-stops a join evaluator while every
// instance is running under a 4KiB budget and spilling build partitions: the
// failover replay must land on a survivor that is itself spilling, results
// must stay byte-identical to the unbudgeted unfaulted run, and no temp run
// may outlive the query — including those of the dead evaluator.
func TestKillEvaluatorMidSpill(t *testing.T) {
	freshObs(t)
	nodes := []simnet.NodeID{"ws0", "ws1", "ws2"}
	want := reference(t, nodes, 300, 400, q2)

	for attempt := 0; ; attempt++ {
		cluster, g := budgetedElasticGrid(t, nodes, 300, 400, 4096)
		inj := chaos.New(cluster)
		inj.KillAfterEvents("ws1", "ws1", 2)

		o := obs.Default()
		b0 := o.Counter(obs.MSpillBytes).Value()
		res, err := g.Execute(context.Background(), q2)
		inj.Close()
		if err != nil {
			t.Fatalf("execute with kill mid-spill: %v", err)
		}
		assertExact(t, res.Rows, want)
		if o.Counter(obs.MSpillBytes).Value() == b0 {
			t.Fatal("4KiB budget never spilled: the kill did not land mid-spill")
		}
		runs, lerr := g.SpillBackend().List()
		if lerr != nil {
			t.Fatal(lerr)
		}
		if len(runs) != 0 {
			t.Fatalf("spill backend leaks runs after faulted query: %v", runs)
		}
		if res.Stats.Failovers >= 1 {
			if cluster.Alive("ws1") {
				t.Fatal("failover counted but ws1 still alive")
			}
			return
		}
		if attempt == 4 {
			t.Fatal("kill landed after query completion in 5 consecutive attempts")
		}
	}
}

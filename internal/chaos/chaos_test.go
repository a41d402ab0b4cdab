package chaos_test

import (
	"context"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/services"
	"repro/internal/simnet"
	"repro/internal/testenv"
	"repro/internal/ws"
)

const (
	q1 = "select EntropyAnalyser(p.sequence) from protein_sequences p"
	q2 = "select i.ORF2 from protein_sequences p, protein_interactions i where i.ORF1=p.ORF"
)

// elasticGrid builds a grid with the given compute nodes and an elastic
// adaptive GDQS. ScanMs is kept high relative to the pipeline so routing is
// still in flight when mid-query faults land.
func elasticGrid(t *testing.T, nodes []simnet.NodeID, seqs, ints int) (*services.Cluster, *services.GDQS) {
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
	testenv.Force(t, &cfg.MemoryBudgetBytes, &cfg.Parallelism)
	g, err := services.NewGDQS(cluster, "coord", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	return cluster, g
}

// sortedRows renders a result set into a canonical form for exactness
// comparison (row order across instances is nondeterministic by design).
func sortedRows(rows []relation.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var b strings.Builder
		for j, v := range r {
			if j > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.Format())
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}

// reference executes the query on an identical unfaulted grid.
func reference(t *testing.T, nodes []simnet.NodeID, seqs, ints int, query string) []string {
	t.Helper()
	_, g := elasticGrid(t, nodes, seqs, ints)
	res, err := g.Execute(context.Background(), query)
	if err != nil {
		t.Fatalf("reference execution: %v", err)
	}
	return sortedRows(res.Rows)
}

func assertExact(t *testing.T, got []relation.Tuple, want []string) {
	t.Helper()
	g := sortedRows(got)
	if len(g) != len(want) {
		t.Fatalf("rows = %d, want %d", len(g), len(want))
	}
	for i := range g {
		if g[i] != want[i] {
			t.Fatalf("row %d = %q, want %q", i, g[i], want[i])
		}
	}
}

// assertNoGoroutineLeak waits for the goroutine count to return to (near)
// its pre-test level; recovery must not strand drivers, heartbeats, or
// watchers.
func assertNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines = %d, want <= %d\n%s", n, before+3, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// timelineHas reports whether the observability timeline recorded an event
// of the kind (and outcome, if nonempty) for the node.
func timelineHas(kind obs.EventKind, node, outcome string) bool {
	for _, e := range obs.Default().Timeline().Events() {
		if e.Kind == kind && e.Node == node && (outcome == "" || e.Outcome == outcome) {
			return true
		}
	}
	return false
}

func freshObs(t *testing.T) {
	t.Helper()
	prev := obs.SetDefault(obs.New())
	t.Cleanup(func() { obs.SetDefault(prev) })
}

// TestKillEvaluatorMidQuery is the acceptance scenario: one of three
// evaluators dies while serving an operation-call query; the session must
// detect the failure, replay the dead machine's unacknowledged partitions
// onto the survivors, and still produce byte-identical results — leaving
// failure and recovery events in the timeline and no goroutine behind.
func TestKillEvaluatorMidQuery(t *testing.T) {
	freshObs(t)
	nodes := []simnet.NodeID{"ws0", "ws1", "ws2"}
	want := reference(t, nodes, 400, 0, q1)

	cluster, g := elasticGrid(t, nodes, 400, 0)
	inj := chaos.New(cluster)
	defer inj.Close()
	before := runtime.NumGoroutine()
	inj.KillAfterEvents("ws1", "ws1", 3)

	res, err := g.Execute(context.Background(), q1)
	if err != nil {
		t.Fatalf("execute with mid-query kill: %v", err)
	}
	assertExact(t, res.Rows, want)
	if cluster.Alive("ws1") {
		t.Fatal("ws1 was never killed: the fault did not fire mid-query")
	}
	if res.Stats.Failovers < 1 {
		t.Errorf("failovers = %d, want >= 1", res.Stats.Failovers)
	}
	if !timelineHas(obs.KindFailure, "ws1", "detected") {
		t.Error("timeline missing failure-detected event for ws1")
	}
	if !timelineHas(obs.KindFailure, "ws1", "recovered") {
		t.Error("timeline missing failure-recovered event for ws1")
	}
	if !timelineHas(obs.KindMembership, "ws1", "") {
		t.Error("timeline missing membership leave event for ws1")
	}
	assertNoGoroutineLeak(t, before)
}

// TestKillDuringJoinBuild kills a hash-join evaluator while build tuples
// are still streaming: the dead instance's build partitions must be
// recreated on survivors from the recovery logs.
func TestKillDuringJoinBuild(t *testing.T) {
	freshObs(t)
	nodes := []simnet.NodeID{"ws0", "ws1", "ws2"}
	want := reference(t, nodes, 300, 400, q2)

	cluster, g := elasticGrid(t, nodes, 300, 400)
	inj := chaos.New(cluster)
	defer inj.Close()
	inj.KillAfterEvents("ws1", "ws1", 1)

	res, err := g.Execute(context.Background(), q2)
	if err != nil {
		t.Fatalf("execute with kill during build: %v", err)
	}
	assertExact(t, res.Rows, want)
	if cluster.Alive("ws1") {
		t.Fatal("ws1 was never killed: the fault did not fire mid-query")
	}
	if res.Stats.Failovers < 1 {
		t.Errorf("failovers = %d, want >= 1", res.Stats.Failovers)
	}
}

// TestKillDuringJoinProbe kills the evaluator later in the query, when the
// join is probing: moved bucket state and unacknowledged probe tuples must
// both replay. A late kill can race query completion, so the scenario
// retries until the death actually lands mid-query.
func TestKillDuringJoinProbe(t *testing.T) {
	freshObs(t)
	nodes := []simnet.NodeID{"ws0", "ws1", "ws2"}
	want := reference(t, nodes, 300, 400, q2)

	for attempt := 0; ; attempt++ {
		cluster, g := elasticGrid(t, nodes, 300, 400)
		inj := chaos.New(cluster)
		inj.KillAfterEvents("ws1", "ws1", 12)

		res, err := g.Execute(context.Background(), q2)
		inj.Close()
		if err != nil {
			t.Fatalf("execute with kill during probe: %v", err)
		}
		assertExact(t, res.Rows, want)
		if res.Stats.Failovers >= 1 {
			return
		}
		if attempt == 4 {
			t.Fatal("kill landed after query completion in 5 consecutive attempts")
		}
	}
}

// TestKillDuringReplay overlaps two evaluator deaths: the second machine
// dies while (or right after) the first failover is in flight, so replay
// targets can themselves disappear. The session must re-route instead of
// wedging, and the lone survivor still produces the exact answer.
func TestKillDuringReplay(t *testing.T) {
	freshObs(t)
	nodes := []simnet.NodeID{"ws0", "ws1", "ws2"}
	want := reference(t, nodes, 400, 0, q1)

	cluster, g := elasticGrid(t, nodes, 400, 0)
	inj := chaos.New(cluster)
	defer inj.Close()
	inj.KillAfterEvents("ws1", "ws1", 2)
	inj.KillAfterEvents("ws2", "ws2", 3)

	res, err := g.Execute(context.Background(), q1)
	if err != nil {
		t.Fatalf("execute with overlapping kills: %v", err)
	}
	assertExact(t, res.Rows, want)
	if res.Stats.Failovers < 2 {
		t.Errorf("failovers = %d, want >= 2", res.Stats.Failovers)
	}
}

// TestJoinDuringQuery registers a new compute node while the query runs:
// the session must admit it into the stateless operation-call fragment with
// a nonzero weight share — without restarting — and results stay exact.
func TestJoinDuringQuery(t *testing.T) {
	freshObs(t)
	base := []simnet.NodeID{"ws0", "ws1"}
	want := reference(t, base, 400, 0, q1)

	cluster, g := elasticGrid(t, base, 400, 0)
	done := make(chan struct{})
	joiner := time.AfterFunc(5*time.Millisecond, func() {
		defer close(done)
		if err := cluster.AddComputeNode("ws2", 1.0,
			ws.NewRegistry(ws.Entropy{CostMs: 5}, ws.SequenceLength{})); err != nil {
			t.Errorf("mid-query join: %v", err)
		}
	})
	defer joiner.Stop()

	res, err := g.Execute(context.Background(), q1)
	if err != nil {
		t.Fatalf("execute with mid-query join: %v", err)
	}
	<-done
	assertExact(t, res.Rows, want)
	if res.Stats.NodesJoined < 1 {
		t.Fatalf("nodes joined = %d, want >= 1 (query may have finished before the join landed)", res.Stats.NodesJoined)
	}
	// The admitted instance appears in the per-instance ledger: a third
	// instance (#2) of some fragment exists only if admission succeeded.
	foundThird := false
	for id := range res.Stats.ConsumedByInstance {
		if strings.HasSuffix(id, "#2") {
			foundThird = true
		}
	}
	if !foundThird {
		t.Errorf("no #2 instance in consumption ledger: %v", res.Stats.ConsumedByInstance)
	}
	if !timelineHas(obs.KindMembership, "ws2", "") {
		t.Error("timeline missing membership join event for ws2")
	}
}

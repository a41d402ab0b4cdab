package services

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/relation"
	"repro/internal/simnet"
	"repro/internal/testenv"
	"repro/internal/vtime"
	"repro/internal/ws"
)

const (
	q1 = "select EntropyAnalyser(p.sequence) from protein_sequences p"
	q2 = "select i.ORF2 from protein_sequences p, protein_interactions i where i.ORF1=p.ORF"
)

// testGrid builds a small, fast grid: one data node, two WS nodes, a
// coordinator. Costs are scaled down so tests run in tens of milliseconds.
func testGrid(t *testing.T, adaptive bool, seqs, ints int) (*Cluster, *GDQS) {
	t.Helper()
	// 10µs per paper-ms keeps modelled time well above Linux timer slop,
	// so response-time comparisons are meaningful.
	cluster := NewCluster(ClusterConfig{
		Scale: 10 * time.Microsecond,
		Costs: engine.Costs{ScanMs: 0.5, FilterMs: 0.01, ProjectMs: 0.01,
			JoinBuildMs: 0.05, JoinProbeMs: 0.3, StartupMs: 50},
		BufferTuples:    25,
		CheckpointEvery: 25,
		Buckets:         64,
	})
	if err := cluster.AddDataNode("data1", dataset.DemoSized(seqs, ints)); err != nil {
		t.Fatal(err)
	}
	for _, n := range []simnet.NodeID{"ws0", "ws1"} {
		if err := cluster.AddComputeNode(n, 1.0,
			ws.NewRegistry(ws.Entropy{CostMs: 5}, ws.SequenceLength{})); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultGDQSConfig()
	cfg.Adaptive = adaptive
	cfg.QueryTimeout = 60 * time.Second
	testenv.Force(t, &cfg.MemoryBudgetBytes, &cfg.Parallelism)
	g, err := NewGDQS(cluster, "coord", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	return cluster, g
}

func TestExecuteQ1Static(t *testing.T) {
	_, g := testGrid(t, false, 150, 200)
	res, err := g.Execute(context.Background(), q1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 150 {
		t.Fatalf("rows = %d, want 150", len(res.Rows))
	}
	if len(res.Columns) != 1 || res.Columns[0].Type != relation.TFloat {
		t.Fatalf("columns = %v", res.Columns)
	}
	for _, r := range res.Rows {
		if h := r[0].AsFloat(); h <= 0 || h > 8 {
			t.Fatalf("entropy out of range: %v", h)
		}
	}
	if res.Stats.ResponseMs <= 0 {
		t.Error("no response time measured")
	}
	// Static GQESs emit no monitoring traffic.
	if res.Stats.RawEvents != 0 || res.Stats.Adaptations != 0 {
		t.Errorf("static run produced adaptivity traffic: %+v", res.Stats)
	}
}

func TestExecuteQ1Adaptive(t *testing.T) {
	_, g := testGrid(t, true, 150, 200)
	res, err := g.Execute(context.Background(), q1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 150 {
		t.Fatalf("rows = %d, want 150", len(res.Rows))
	}
	if res.Stats.RawEvents == 0 {
		t.Error("adaptive run emitted no raw monitoring events")
	}
}

func TestExecuteQ2Correctness(t *testing.T) {
	cluster, g := testGrid(t, true, 150, 250)
	res, err := g.Execute(context.Background(), q2)
	if err != nil {
		t.Fatal(err)
	}
	store := cluster.site("data1").store
	seqs, _ := store.Table("protein_sequences")
	ints, _ := store.Table("protein_interactions")
	valid := make(map[string]bool)
	for _, tp := range seqs.Tuples {
		valid[tp[0].AsString()] = true
	}
	want := 0
	for _, tp := range ints.Tuples {
		if valid[tp[0].AsString()] {
			want++
		}
	}
	if len(res.Rows) != want {
		t.Fatalf("join rows = %d, want %d", len(res.Rows), want)
	}
}

func TestAdaptiveRebalancesUnderPerturbation(t *testing.T) {
	// The headline behaviour: with one WS 10x costlier, the adaptive system
	// shifts work to the fast machine and beats the static run.
	staticCluster, staticG := testGrid(t, false, 300, 100)
	staticCluster.Node("ws1").SetPerturbation(vtime.Multiplier(10))
	staticRes, err := staticG.Execute(context.Background(), q1)
	if err != nil {
		t.Fatal(err)
	}

	// Retrospective response: with a fast data source, everything is
	// distributed before the imbalance is detected, so only R1 (recalling
	// the slow machine's queue) can rebalance — the paper's motivation for
	// state/log repartitioning.
	adCluster, _ := testGrid(t, true, 300, 100)
	adCluster.Node("ws1").SetPerturbation(vtime.Multiplier(10))
	cfg := DefaultGDQSConfig()
	cfg.Responder.Response = core.R1
	cfg.QueryTimeout = 60 * time.Second
	testenv.Force(t, &cfg.MemoryBudgetBytes, &cfg.Parallelism)
	adG, err := NewGDQS(adCluster, "coordR1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	adRes, err := adG.Execute(context.Background(), q1)
	if err != nil {
		t.Fatal(err)
	}
	if len(adRes.Rows) != 300 || len(staticRes.Rows) != 300 {
		t.Fatalf("row counts: ad %d static %d", len(adRes.Rows), len(staticRes.Rows))
	}
	if adRes.Stats.Adaptations == 0 {
		t.Fatalf("no adaptation happened: %+v", adRes.Stats)
	}
	// The fast instance must consume clearly more than the slow one.
	var fast, slow int64
	for _, frag := range adRes.Stats.Plan.Fragments {
		if frag.Partitioned {
			fast = adRes.Stats.ConsumedByInstance[frag.InstanceID(0)]
			slow = adRes.Stats.ConsumedByInstance[frag.InstanceID(1)]
		}
	}
	if fast <= slow {
		t.Errorf("consumption not rebalanced: fast=%d slow=%d", fast, slow)
	}
	if adRes.Stats.ResponseMs >= 0.9*staticRes.Stats.ResponseMs {
		t.Errorf("adaptive (%v ms) not faster than static (%v ms) under perturbation",
			adRes.Stats.ResponseMs, staticRes.Stats.ResponseMs)
	}
}

func TestAdaptiveQ2Retrospective(t *testing.T) {
	// A perturbed join instance must trigger a stateful (R1) rebalance and
	// still produce the correct result.
	cluster, g := testGrid(t, true, 150, 600)
	cluster.Node("ws1").SetPerturbation(vtime.Sleep(3))
	res, err := g.Execute(context.Background(), q2)
	if err != nil {
		t.Fatal(err)
	}
	store := cluster.site("data1").store
	seqs, _ := store.Table("protein_sequences")
	valid := make(map[string]bool)
	for _, tp := range seqs.Tuples {
		valid[tp[0].AsString()] = true
	}
	ints, _ := store.Table("protein_interactions")
	want := 0
	for _, tp := range ints.Tuples {
		if valid[tp[0].AsString()] {
			want++
		}
	}
	if len(res.Rows) != want {
		t.Fatalf("join rows = %d, want %d (adaptation corrupted results)", len(res.Rows), want)
	}
}

func TestExecuteErrors(t *testing.T) {
	_, g := testGrid(t, false, 50, 50)
	for _, q := range []string{
		"not sql at all",
		"select nope from protein_sequences",
		"select * from missing",
	} {
		if _, err := g.Execute(context.Background(), q); err == nil {
			t.Errorf("Execute(%q): expected error", q)
		}
	}
}

func TestExplain(t *testing.T) {
	_, g := testGrid(t, false, 50, 50)
	out, err := g.Explain(q2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"HashJoin", "fragment", "stateful"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

func TestMonitorFrequencyZeroDisablesMonitoring(t *testing.T) {
	cluster, _ := testGrid(t, true, 100, 50)
	cfg := DefaultGDQSConfig()
	cfg.MonitorEvery = 0
	cfg.QueryTimeout = 60 * time.Second
	testenv.Force(t, &cfg.MemoryBudgetBytes, &cfg.Parallelism)
	g, err := NewGDQS(cluster, "coord2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Execute(context.Background(), q1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RawEvents != 0 {
		t.Errorf("monitoring frequency 0 still produced %d events", res.Stats.RawEvents)
	}
}

func TestClusterValidation(t *testing.T) {
	cluster := NewCluster(ClusterConfig{Scale: time.Microsecond})
	if err := cluster.AddComputeNode("c1", 0, nil); err == nil {
		t.Error("zero speed accepted")
	}
	if cluster.site("nope") != nil {
		t.Error("lookup of unknown node")
	}
}

func TestExecuteGroupByAggregation(t *testing.T) {
	cluster, g := testGrid(t, false, 150, 400)
	res, err := g.Execute(context.Background(), "select i.ORF1, count(*) AS n from protein_interactions i group by i.ORF1 order by n desc, i.ORF1 limit 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(res.Rows))
	}
	// Verify against a reference aggregation.
	store := cluster.site("data1").store
	ints, _ := store.Table("protein_interactions")
	counts := map[string]int64{}
	for _, tp := range ints.Tuples {
		counts[tp[0].AsString()]++
	}
	// Rows must be sorted by count desc then key asc, and match reference.
	var prev int64 = 1 << 62
	var prevKey string
	for _, row := range res.Rows {
		k, n := row[0].AsString(), row[1].AsInt()
		if counts[k] != n {
			t.Fatalf("group %q: count %d, want %d", k, n, counts[k])
		}
		if n > prev || (n == prev && k < prevKey) {
			t.Fatalf("rows not sorted: %q:%d after %q:%d", k, n, prevKey, prev)
		}
		prev, prevKey = n, k
	}
}

func TestExecuteGlobalAggregate(t *testing.T) {
	_, g := testGrid(t, false, 123, 77)
	res, err := g.Execute(context.Background(), "select count(*) AS total, min(i.ORF1) AS lo from protein_interactions i")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].AsInt() != 77 {
		t.Fatalf("count = %v, want 77", res.Rows[0][0])
	}
	if res.Rows[0][1].Type() != relation.TString {
		t.Fatalf("min type = %v", res.Rows[0][1].Type())
	}
}

func TestAdaptiveAggregationCorrectUnderRebalance(t *testing.T) {
	// The aggregate is the engine's second stateful operator: perturb one
	// instance so the Responder repartitions group state mid-query, then
	// verify counts are neither lost nor duplicated.
	cluster, _ := testGrid(t, true, 150, 1200)
	cluster.Node("ws1").SetPerturbation(vtime.Sleep(2))
	cfg := DefaultGDQSConfig()
	cfg.Responder.Response = core.R1
	cfg.QueryTimeout = 60 * time.Second
	testenv.Force(t, &cfg.MemoryBudgetBytes, &cfg.Parallelism)
	g, err := NewGDQS(cluster, "coordAgg", cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Execute(context.Background(), "select i.ORF1, count(*) AS n from protein_interactions i group by i.ORF1")
	if err != nil {
		t.Fatal(err)
	}
	store := cluster.site("data1").store
	ints, _ := store.Table("protein_interactions")
	counts := map[string]int64{}
	for _, tp := range ints.Tuples {
		counts[tp[0].AsString()]++
	}
	if len(res.Rows) != len(counts) {
		t.Fatalf("groups = %d, want %d", len(res.Rows), len(counts))
	}
	var total int64
	for _, row := range res.Rows {
		k, n := row[0].AsString(), row[1].AsInt()
		if counts[k] != n {
			t.Fatalf("group %q: count %d, want %d (state repartitioning corrupted the aggregate)", k, n, counts[k])
		}
		total += n
	}
	if total != 1200 {
		t.Fatalf("total = %d, want 1200", total)
	}
}

func TestExecuteOrderByLimitPlain(t *testing.T) {
	_, g := testGrid(t, false, 60, 40)
	res, err := g.Execute(context.Background(), "select p.ORF from protein_sequences p order by p.ORF desc limit 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].AsString() != "YAL00059C" || res.Rows[2][0].AsString() != "YAL00057C" {
		t.Fatalf("order: %v %v %v", res.Rows[0].Format(), res.Rows[1].Format(), res.Rows[2].Format())
	}
}

func TestRandomPerturbationsNeverCorruptResults(t *testing.T) {
	// Property-style sweep: across random perturbation shapes, policies and
	// both queries, the adaptive system must deliver exactly the static
	// reference result — no loss, no duplication — regardless of when and
	// how the Responder rebalances.
	if testing.Short() {
		t.Skip("sweep takes a few seconds")
	}
	rng := rand.New(rand.NewSource(20260705))
	dropped := obs.Default().Counter(obs.MAggReplayDropped)
	dropped0 := dropped.Value()
	perturbations := []func() vtime.Perturbation{
		func() vtime.Perturbation { return vtime.Multiplier(float64(2 + rng.Intn(40))) },
		func() vtime.Perturbation { return vtime.Sleep(float64(1 + rng.Intn(20))) },
		func() vtime.Perturbation { return vtime.NewNormalMultiplier(1, float64(10+rng.Intn(50)), rng.Int63()) },
		func() vtime.Perturbation {
			return vtime.Step{At: rng.Intn(200), Before: vtime.None,
				After: vtime.Multiplier(float64(5 + rng.Intn(25)))}
		},
	}
	queries := []struct {
		sql      string
		wantRows int
	}{
		{q1, 120},
		{q2, 200},
		{"select i.ORF1, count(*) AS n from protein_interactions i group by i.ORF1 order by i.ORF1", -1},
	}
	for trial := 0; trial < 8; trial++ {
		q := queries[trial%len(queries)]
		response := core.R2
		if trial%2 == 0 {
			response = core.R1
		}
		cluster, _ := testGrid(t, true, 120, 200)
		node := []string{"ws0", "ws1"}[rng.Intn(2)]
		pert := perturbations[rng.Intn(len(perturbations))]()
		cluster.Node(simnet.NodeID(node)).SetPerturbation(pert)
		cfg := DefaultGDQSConfig()
		cfg.Responder.Response = response
		// Generous: `go test -race ./...` runs packages in parallel and the
		// simulated testbed runs on real time, so heavy machine load
		// stretches wall-clock response times.
		cfg.QueryTimeout = 5 * time.Minute
		testenv.Force(t, &cfg.MemoryBudgetBytes, &cfg.Parallelism)
		g, err := NewGDQS(cluster, "coordRnd", cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.Execute(context.Background(), q.sql)
		if err != nil {
			t.Fatalf("trial %d (%s on %s, %v): %v", trial, q.sql[:20], node, pert, err)
		}
		if q.wantRows >= 0 && len(res.Rows) != q.wantRows {
			t.Fatalf("trial %d (%s, %v): rows = %d, want %d",
				trial, response, pert, len(res.Rows), q.wantRows)
		}
		if q.wantRows < 0 {
			// Aggregation: totals must account for every input tuple.
			var total int64
			for _, row := range res.Rows {
				total += row[1].AsInt()
			}
			if total != 200 {
				// A non-zero counter names the defect: R1 replayed into an
				// aggregate that had already frozen (DESIGN.md §8).
				t.Fatalf("trial %d (%v): aggregate total = %d, want 200 (%s = %d)",
					trial, pert, total, obs.MAggReplayDropped, dropped.Value()-dropped0)
			}
		}
	}
}

func TestStepPerturbationMidQuery(t *testing.T) {
	// The motivating scenario: a machine that is fine at first and slows
	// down mid-query. The step perturbation kicks in after 150 work units;
	// the adaptive system must detect the change and still finish with the
	// full result.
	cluster, _ := testGrid(t, true, 500, 100)
	cluster.Node("ws1").SetPerturbation(vtime.Step{
		At: 150, Before: vtime.None, After: vtime.Multiplier(30),
	})
	cfg := DefaultGDQSConfig()
	cfg.Responder.Response = core.R1
	cfg.QueryTimeout = 5 * time.Minute
	testenv.Force(t, &cfg.MemoryBudgetBytes, &cfg.Parallelism)
	g, err := NewGDQS(cluster, "coordStep", cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Execute(context.Background(), q1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 500 {
		t.Fatalf("rows = %d, want 500", len(res.Rows))
	}
	if res.Stats.Adaptations == 0 {
		t.Fatalf("mid-query slowdown never triggered adaptation: %+v", res.Stats)
	}
}

func TestExecuteHaving(t *testing.T) {
	cluster, g := testGrid(t, false, 150, 500)
	res, err := g.Execute(context.Background(), "select i.ORF1, count(*) AS n from protein_interactions i group by i.ORF1 having count(*) >= 5 order by n desc, i.ORF1")
	if err != nil {
		t.Fatal(err)
	}
	store := cluster.site("data1").store
	ints, _ := store.Table("protein_interactions")
	counts := map[string]int64{}
	for _, tp := range ints.Tuples {
		counts[tp[0].AsString()]++
	}
	want := 0
	for _, n := range counts {
		if n >= 5 {
			want++
		}
	}
	if len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	for _, row := range res.Rows {
		if row[1].AsInt() < 5 {
			t.Fatalf("HAVING leaked group %s", row.Format())
		}
		if counts[row[0].AsString()] != row[1].AsInt() {
			t.Fatalf("wrong count for %s", row.Format())
		}
	}
	// Hidden HAVING column must not appear in the output.
	if len(res.Columns) != 2 {
		t.Fatalf("columns = %v", res.Columns)
	}
}

func TestConcurrentQueriesShareOneGrid(t *testing.T) {
	// Two coordinators fire different queries at the same cluster
	// simultaneously; query-tagged plans keep their fragments, exchanges
	// and adaptivity topologies fully isolated.
	cluster, g1 := testGrid(t, true, 200, 300)
	cfg := DefaultGDQSConfig()
	cfg.QueryTimeout = 5 * time.Minute
	testenv.Force(t, &cfg.MemoryBudgetBytes, &cfg.Parallelism)
	g2, err := NewGDQS(cluster, "coord2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cluster.Node("ws1").SetPerturbation(vtime.Multiplier(5))

	type outcome struct {
		rows int
		err  error
	}
	res1 := make(chan outcome, 1)
	res2 := make(chan outcome, 1)
	go func() {
		r, err := g1.Execute(context.Background(), q1)
		if err != nil {
			res1 <- outcome{err: err}
			return
		}
		res1 <- outcome{rows: len(r.Rows)}
	}()
	go func() {
		r, err := g2.Execute(context.Background(), q2)
		if err != nil {
			res2 <- outcome{err: err}
			return
		}
		res2 <- outcome{rows: len(r.Rows)}
	}()
	o1, o2 := <-res1, <-res2
	if o1.err != nil {
		t.Fatalf("q1: %v", o1.err)
	}
	if o2.err != nil {
		t.Fatalf("q2: %v", o2.err)
	}
	if o1.rows != 200 {
		t.Errorf("q1 rows = %d, want 200", o1.rows)
	}
	if o2.rows != 300 {
		t.Errorf("q2 rows = %d, want 300", o2.rows)
	}
}

func TestPlanValidateOnExecute(t *testing.T) {
	// Every scheduled plan must pass validation; exercise it through the
	// public path on all supported query shapes.
	_, g := testGrid(t, false, 40, 60)
	for _, q := range []string{
		q1, q2,
		"select * from protein_sequences",
		"select count(*) from protein_sequences",
		"select i.ORF1, count(*) n from protein_interactions i group by i.ORF1 having count(*) > 1 order by n limit 3",
	} {
		if _, err := g.Execute(context.Background(), q); err != nil {
			t.Errorf("Execute(%q): %v", q, err)
		}
	}
}

func TestSkewedAggregationUnderRebalance(t *testing.T) {
	// Zipf-skewed groups concentrate state in few buckets; moving those
	// buckets moves most of the aggregate's state. Correctness must hold.
	cluster := NewCluster(ClusterConfig{
		Scale: 10 * time.Microsecond,
		Costs: engine.Costs{ScanMs: 0.5, AggMs: 1, ProjectMs: 0.01, SortMs: 0.05, StartupMs: 50},
	})
	t.Cleanup(cluster.Close)
	store := dataset.NewStore()
	store.Add(dataset.ProteinSequences(50, 1))
	store.Add(dataset.ProteinInteractionsZipf(2000, 300, 1.4, 7))
	if err := cluster.AddDataNode("data1", store); err != nil {
		t.Fatal(err)
	}
	for _, n := range []simnet.NodeID{"ws0", "ws1"} {
		if err := cluster.AddComputeNode(n, 1.0, ws.NewRegistry(ws.Entropy{})); err != nil {
			t.Fatal(err)
		}
	}
	cluster.Node("ws0").SetPerturbation(vtime.Multiplier(12))
	cfg := DefaultGDQSConfig()
	cfg.Responder.Response = core.R1
	cfg.QueryTimeout = 5 * time.Minute
	testenv.Force(t, &cfg.MemoryBudgetBytes, &cfg.Parallelism)
	g, err := NewGDQS(cluster, "coord", cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Execute(context.Background(), "select i.ORF1, count(*) AS n from protein_interactions i group by i.ORF1")
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := store.Table("protein_interactions")
	want := map[string]int64{}
	for _, tp := range tbl.Tuples {
		want[tp[0].AsString()]++
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("groups = %d, want %d", len(res.Rows), len(want))
	}
	for _, row := range res.Rows {
		if want[row[0].AsString()] != row[1].AsInt() {
			t.Fatalf("group %s wrong under skewed rebalance", row.Format())
		}
	}
}

func TestJoinFeedingAggregation(t *testing.T) {
	// Join and aggregation compose: two chained stateful partitioned
	// fragments, each hash-partitioned on its own keys, both adaptable.
	cluster, g := testGrid(t, true, 100, 400)
	cluster.Node("ws1").SetPerturbation(vtime.Multiplier(8))
	res, err := g.Execute(context.Background(), "select p.ORF, count(*) AS n from protein_sequences p, protein_interactions i where i.ORF1 = p.ORF group by p.ORF order by n desc, p.ORF limit 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Reference: count interactions per ORF.
	store := cluster.site("data1").store
	ints, _ := store.Table("protein_interactions")
	counts := map[string]int64{}
	for _, tp := range ints.Tuples {
		counts[tp[0].AsString()]++
	}
	for _, row := range res.Rows {
		if counts[row[0].AsString()] != row[1].AsInt() {
			t.Fatalf("group %s: got %v, want %d", row[0].Format(), row[1].Format(), counts[row[0].AsString()])
		}
	}
	// The plan must contain two partitioned fragments (join + aggregate).
	partitioned := 0
	for _, f := range res.Stats.Plan.Fragments {
		if f.Partitioned {
			partitioned++
		}
	}
	if partitioned != 2 {
		t.Fatalf("partitioned fragments = %d, want 2:\n%s", partitioned, res.Stats.Plan.Explain())
	}
}

func TestTablesOnSeparateDataNodes(t *testing.T) {
	// Q2 with its two tables hosted by different Grid Data Services: the
	// scheduler must place each scan on its own machine.
	cluster := NewCluster(ClusterConfig{
		Scale: 5 * time.Microsecond,
		Costs: engine.Costs{ScanMs: 0.5, JoinBuildMs: 0.05, JoinProbeMs: 0.3, ProjectMs: 0.01, StartupMs: 50},
	})
	t.Cleanup(cluster.Close)
	s1 := dataset.NewStore()
	s1.Add(dataset.ProteinSequences(80, 1))
	s2 := dataset.NewStore()
	s2.Add(dataset.ProteinInteractions(150, 80, 1))
	if err := cluster.AddDataNode("data1", s1); err != nil {
		t.Fatal(err)
	}
	if err := cluster.AddDataNode("data2", s2); err != nil {
		t.Fatal(err)
	}
	for _, n := range []simnet.NodeID{"ws0", "ws1"} {
		if err := cluster.AddComputeNode(n, 1.0, ws.NewRegistry(ws.Entropy{})); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultGDQSConfig()
	cfg.Adaptive = false
	cfg.QueryTimeout = time.Minute
	testenv.Force(t, &cfg.MemoryBudgetBytes, &cfg.Parallelism)
	g, err := NewGDQS(cluster, "coord", cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Execute(context.Background(), q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 150 {
		t.Fatalf("rows = %d, want 150", len(res.Rows))
	}
	// Scans must sit on their hosting nodes.
	nodes := map[simnet.NodeID]bool{}
	for _, f := range res.Stats.Plan.Fragments {
		if f.Root.Kind == physical.KScan {
			nodes[f.Instances[0]] = true
		}
	}
	if !nodes["data1"] || !nodes["data2"] {
		t.Fatalf("scan placement: %v\n%s", nodes, res.Stats.Plan.Explain())
	}
}

// parallelGDQS builds a coordinator over an existing test cluster with the
// morsel worker pool enabled.
func parallelGDQS(t *testing.T, cluster *Cluster, node simnet.NodeID, workers int, mutate func(*GDQSConfig)) *GDQS {
	t.Helper()
	cfg := DefaultGDQSConfig()
	cfg.QueryTimeout = 60 * time.Second
	cfg.Parallelism = workers
	if mutate != nil {
		mutate(&cfg)
	}
	testenv.Force(t, &cfg.MemoryBudgetBytes, &cfg.Parallelism)
	g, err := NewGDQS(cluster, node, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestParallelismQ2Correctness(t *testing.T) {
	// End-to-end Q2 with every parallel-eligible fragment on a 2-worker
	// morsel pool: the join result must match the reference exactly.
	cluster, _ := testGrid(t, true, 150, 250)
	g := parallelGDQS(t, cluster, "coordPar", 2, nil)
	res, err := g.Execute(context.Background(), q2)
	if err != nil {
		t.Fatal(err)
	}
	store := cluster.site("data1").store
	seqs, _ := store.Table("protein_sequences")
	valid := make(map[string]bool)
	for _, tp := range seqs.Tuples {
		valid[tp[0].AsString()] = true
	}
	ints, _ := store.Table("protein_interactions")
	want := 0
	for _, tp := range ints.Tuples {
		if valid[tp[0].AsString()] {
			want++
		}
	}
	if len(res.Rows) != want {
		t.Fatalf("join rows = %d, want %d", len(res.Rows), want)
	}
}

func TestParallelismAdaptiveQ2Retrospective(t *testing.T) {
	// A perturbed parallel join instance must survive a retrospective (R1)
	// state repartitioning mid-query: pool workers share the partitioned
	// join state the Responder evicts and replays.
	cluster, _ := testGrid(t, true, 150, 600)
	cluster.Node("ws1").SetPerturbation(vtime.Sleep(3))
	g := parallelGDQS(t, cluster, "coordParR1", 2, func(cfg *GDQSConfig) {
		cfg.Responder.Response = core.R1
	})
	res, err := g.Execute(context.Background(), q2)
	if err != nil {
		t.Fatal(err)
	}
	store := cluster.site("data1").store
	seqs, _ := store.Table("protein_sequences")
	valid := make(map[string]bool)
	for _, tp := range seqs.Tuples {
		valid[tp[0].AsString()] = true
	}
	ints, _ := store.Table("protein_interactions")
	want := 0
	for _, tp := range ints.Tuples {
		if valid[tp[0].AsString()] {
			want++
		}
	}
	if len(res.Rows) != want {
		t.Fatalf("join rows = %d, want %d (adaptation corrupted parallel results)", len(res.Rows), want)
	}
}

func TestParallelismAggregationUnderRebalance(t *testing.T) {
	// Grouped aggregation with per-worker partial states, merged at the
	// drain barrier, while the Responder repartitions group state.
	cluster, _ := testGrid(t, true, 150, 1200)
	cluster.Node("ws1").SetPerturbation(vtime.Sleep(2))
	g := parallelGDQS(t, cluster, "coordParAgg", 2, func(cfg *GDQSConfig) {
		cfg.Responder.Response = core.R1
	})
	res, err := g.Execute(context.Background(), "select i.ORF1, count(*) AS n from protein_interactions i group by i.ORF1")
	if err != nil {
		t.Fatal(err)
	}
	store := cluster.site("data1").store
	ints, _ := store.Table("protein_interactions")
	counts := map[string]int64{}
	for _, tp := range ints.Tuples {
		counts[tp[0].AsString()]++
	}
	if len(res.Rows) != len(counts) {
		t.Fatalf("groups = %d, want %d", len(res.Rows), len(counts))
	}
	var total int64
	for _, row := range res.Rows {
		k, n := row[0].AsString(), row[1].AsInt()
		if counts[k] != n {
			t.Fatalf("group %q: count %d, want %d (parallel partial merge corrupted the aggregate)", k, n, counts[k])
		}
		total += n
	}
	if total != 1200 {
		t.Fatalf("total = %d, want 1200", total)
	}
}

package repro_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	repro "repro"
	"repro/internal/services"
)

// demoGrid assembles the standard topology at a fast time scale.
func demoGrid(t *testing.T, opts ...repro.CoordinatorOption) (*repro.Grid, *repro.Coordinator) {
	t.Helper()
	g := repro.NewGrid(repro.WithScale(2 * time.Microsecond))
	if err := g.AddDemoDatabaseSized("data1", 300, 500); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"ws0", "ws1"} {
		if err := g.AddComputeNode(n, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	coord, err := g.NewCoordinator("coord", opts...)
	if err != nil {
		t.Fatal(err)
	}
	return g, coord
}

// TestAdaptiveKeepsOtherOptions applies every option before and after
// Adaptive() and Elastic(), the adaptivity options included: the order must
// not matter, and the option must have taken effect.
func TestAdaptiveKeepsOtherOptions(t *testing.T) {
	opts := []struct {
		name string
		opt  repro.CoordinatorOption
	}{
		{"Retrospective", repro.Retrospective()},
		{"AssessWithCommunication", repro.AssessWithCommunication()},
		{"MonitorEvery5", repro.MonitorEvery(5)},
		{"MonitorEvery0", repro.MonitorEvery(0)},
		{"Parallel", repro.Parallel(3)},
		{"QueryTimeout", repro.QueryTimeout(time.Second)},
		{"PlanCacheSize", repro.PlanCacheSize(-1)},
		{"MaxConcurrentQueries", repro.MaxConcurrentQueries(3, 5)},
		{"QueueTimeout", repro.QueueTimeout(time.Second)},
		{"MemoryBudget", repro.MemoryBudget(1 << 20)},
		{"SpillDir", repro.SpillDir("spill")},
	}
	modes := []struct {
		name string
		opt  repro.CoordinatorOption
	}{
		{"Adaptive", repro.Adaptive()},
		{"Elastic", repro.Elastic()},
	}
	apply := func(opts ...repro.CoordinatorOption) services.GDQSConfig {
		return repro.CoordinatorConfig(opts)
	}
	for _, m := range modes {
		for _, o := range opts {
			t.Run(m.name+"/"+o.name, func(t *testing.T) {
				before, after := apply(o.opt, m.opt), apply(m.opt, o.opt)
				if before != after {
					t.Fatalf("%s then %s:\n%+v\n%s then %s:\n%+v", o.name, m.name, before, m.name, o.name, after)
				}
				if before == apply(m.opt) {
					t.Fatalf("%s had no effect", o.name)
				}
			})
		}
	}
}

func TestFacadeStaticQuery(t *testing.T) {
	_, coord := demoGrid(t)
	res, err := coord.Query("select EntropyAnalyser(p.sequence) from protein_sequences p")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 300 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.ResponseMs <= 0 {
		t.Error("no response time")
	}
	if len(res.Columns) != 1 {
		t.Errorf("columns = %v", res.Columns)
	}
}

// TestFacadeDemoDatabase checks that UseDemoDatabase loads the paper's
// evaluation cardinalities.
func TestFacadeDemoDatabase(t *testing.T) {
	g := repro.NewGrid(repro.WithScale(2 * time.Microsecond))
	if err := g.UseDemoDatabase(); err != nil {
		t.Fatal(err)
	}
	if err := g.AddComputeNode("ws0", 1.0); err != nil {
		t.Fatal(err)
	}
	coord, err := g.NewCoordinator("coord")
	if err != nil {
		t.Fatal(err)
	}
	for table, want := range map[string]string{"protein_sequences": "3000", "protein_interactions": "4700"} {
		res, err := coord.Query("select count(*) AS n from " + table + " t")
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].Format(); got != want {
			t.Errorf("count(%s) = %s, want %s", table, got, want)
		}
	}
}

// TestFacadeStoredDatabase checks that the disk-stored demo tables answer a
// join exactly as the in-memory ones of the same cardinalities do.
func TestFacadeStoredDatabase(t *testing.T) {
	const q = "select p.ORF, i.ORF2 from protein_sequences p, protein_interactions i where p.ORF = i.ORF1"
	rows := func(add func(*repro.Grid) error) []string {
		g := repro.NewGrid(repro.WithScale(2 * time.Microsecond))
		if err := add(g); err != nil {
			t.Fatal(err)
		}
		if err := g.AddComputeNode("ws0", 1.0); err != nil {
			t.Fatal(err)
		}
		coord, err := g.NewCoordinator("coord")
		if err != nil {
			t.Fatal(err)
		}
		res, err := coord.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			out[i] = r.Format()
		}
		slices.Sort(out)
		return out
	}
	want := rows(func(g *repro.Grid) error { return g.AddDemoDatabaseSized("data1", 120, 200) })
	got := rows(func(g *repro.Grid) error { return g.AddStoredDatabaseSized("data1", t.TempDir(), 120, 200) })
	if len(want) != 200 || !slices.Equal(got, want) {
		t.Fatalf("stored rows (%d) differ from in-memory rows (%d)", len(got), len(want))
	}
}

// TestFacadeMetricsHandler reads both observability endpoints after a query.
func TestFacadeMetricsHandler(t *testing.T) {
	_, coord := demoGrid(t)
	if _, err := coord.Query("select p.ORF from protein_sequences p where p.ORF = 'YAL00001C'"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(repro.MetricsHandler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "queries_total") {
		t.Fatalf("/metrics lacks queries_total:\n%s", body)
	}
	res, err = srv.Client().Get(srv.URL + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var dump map[string]any
	if err := json.NewDecoder(res.Body).Decode(&dump); err != nil {
		t.Fatalf("/timeline is not JSON: %v", err)
	}
	if _, ok := dump["events"]; !ok {
		t.Fatalf("/timeline = %v, want an events field", dump)
	}
}

func TestFacadeAdaptiveWithPerturbation(t *testing.T) {
	g, coord := demoGrid(t, repro.Adaptive(), repro.Retrospective(),
		repro.QueryTimeout(2*time.Minute))
	if err := g.Perturb("ws1", repro.Slowdown(15)); err != nil {
		t.Fatal(err)
	}
	res, err := coord.Query("select EntropyAnalyser(p.sequence) from protein_sequences p")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 300 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Stats.Adaptations == 0 {
		t.Errorf("expected at least one adaptation: %+v", res.Stats)
	}
}

func TestFacadeJoin(t *testing.T) {
	_, coord := demoGrid(t, repro.Adaptive())
	res, err := coord.Query("select i.ORF2 from protein_sequences p, protein_interactions i where i.ORF1 = p.ORF")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 500 {
		t.Fatalf("rows = %d, want 500 (every interaction matches)", len(res.Rows))
	}
}

func TestFacadeExplain(t *testing.T) {
	_, coord := demoGrid(t)
	out, err := coord.Explain("select EntropyAnalyser(p.sequence) from protein_sequences p")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "OperationCall") || !strings.Contains(out, "fragment") {
		t.Errorf("explain output:\n%s", out)
	}
}

func TestFacadeErrors(t *testing.T) {
	g, coord := demoGrid(t)
	if err := g.Perturb("nope", repro.Slowdown(2)); err == nil {
		t.Error("perturbing unknown node accepted")
	}
	if _, err := coord.Query("select broken from nowhere"); err == nil {
		t.Error("bad query accepted")
	}
}

func TestFacadePerturbationKinds(t *testing.T) {
	// All perturbation constructors produce working models.
	perts := []repro.Perturbation{
		repro.Slowdown(2),
		repro.SleepInjection(5),
		repro.NormalJitter(1, 3, 42),
		repro.StepAt(10, repro.Slowdown(1), repro.Slowdown(2)),
	}
	for _, p := range perts {
		if got := p.Apply(1, 0); got <= 0 {
			t.Errorf("%s: non-positive cost %v", p, got)
		}
	}
}

func TestFacadePreparedStatement(t *testing.T) {
	_, coord := demoGrid(t)
	stmt, err := coord.Prepare("select p.ORF from protein_sequences p where p.ORF = ?")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 1 {
		t.Fatalf("NumParams = %d, want 1", stmt.NumParams())
	}
	for _, orf := range []string{"YAL00004C", "YAL00042C"} {
		res, err := stmt.Execute(context.Background(), orf)
		if err != nil {
			t.Fatalf("Execute(%q): %v", orf, err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].AsString() != orf {
			t.Fatalf("Execute(%q) rows = %v", orf, res.Rows)
		}
	}
	stats := coord.PlanCacheStats()
	if stats.Hits == 0 {
		t.Errorf("prepared executions never hit the plan cache: %+v", stats)
	}
	if _, err := stmt.Execute(context.Background()); err == nil {
		t.Error("missing argument accepted")
	}
}

func TestFacadeConcurrentClients(t *testing.T) {
	_, coord := demoGrid(t, repro.MaxConcurrentQueries(4, 64))
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := fmt.Sprintf("select p.ORF from protein_sequences p where p.ORF = 'YAL%05dC'", i)
			res, err := coord.Query(q)
			if err != nil {
				errs <- err
				return
			}
			if len(res.Rows) != 1 {
				errs <- fmt.Errorf("client %d: %d rows", i, len(res.Rows))
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestFacadeValues(t *testing.T) {
	tp := repro.Tuple{repro.Int(1), repro.Float(2.5), repro.String("x")}
	if tp.Format() != "(1, 2.5, x)" {
		t.Errorf("tuple format %q", tp.Format())
	}
}

func TestFacadeElasticSurvivesKill(t *testing.T) {
	g := repro.NewGrid(repro.WithScale(10 * time.Microsecond))
	if err := g.AddDemoDatabaseSized("data1", 300, 0); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"ws0", "ws1", "ws2"} {
		if err := g.AddComputeNode(n, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	coord, err := g.NewCoordinator("coord", repro.Elastic())
	if err != nil {
		t.Fatal(err)
	}
	killer := time.AfterFunc(2*time.Millisecond, func() { _ = g.KillNode("ws1") })
	defer killer.Stop()
	res, err := coord.Query("select EntropyAnalyser(p.sequence) from protein_sequences p")
	if err != nil {
		t.Fatalf("elastic query with mid-flight kill: %v", err)
	}
	if len(res.Rows) != 300 {
		t.Fatalf("rows = %d, want 300", len(res.Rows))
	}
	if g.Alive("ws1") {
		t.Skip("query finished before the kill landed")
	}
	if res.Stats.Failovers < 1 {
		t.Errorf("failovers = %d, want >= 1", res.Stats.Failovers)
	}
}

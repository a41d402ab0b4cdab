package services

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/plancache"
	"repro/internal/qerr"
	"repro/internal/sqlparse"
	"repro/internal/testenv"
	"repro/internal/ws"
)

// qOrf selects one sequence row by key; literal variants share a normalized
// form, so repeats of any variant hit the plan cache.
func qOrf(i int) string {
	return fmt.Sprintf("select p.ORF from protein_sequences p where p.ORF = 'YAL%05dC'", i)
}

// statsDelta runs fn and returns how the plan-cache counters moved. The
// counters live in the process-global obs registry, so tests must compare
// deltas, not absolutes.
func statsDelta(g *GDQS, fn func()) plancache.Stats {
	before := g.PlanCacheStats()
	fn()
	after := g.PlanCacheStats()
	return plancache.Stats{
		Hits:      after.Hits - before.Hits,
		Misses:    after.Misses - before.Misses,
		Evictions: after.Evictions - before.Evictions,
		Size:      after.Size,
	}
}

// sortedRows renders a result set order-insensitively: exchanges interleave
// partitioned streams nondeterministically, so only the multiset of rows is
// comparable across runs.
func sortedRows(res *QueryResult) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.Format()
	}
	sort.Strings(out)
	return out
}

func TestPlanCacheHitOnRepeatedShape(t *testing.T) {
	_, g := testGrid(t, false, 40, 60)

	var first, second *QueryResult
	d := statsDelta(g, func() {
		var err error
		if first, err = g.Execute(context.Background(), qOrf(3)); err != nil {
			t.Fatal(err)
		}
	})
	if d.Misses != 1 || d.Hits != 0 {
		t.Fatalf("cold execute: %+v, want 1 miss", d)
	}
	d = statsDelta(g, func() {
		var err error
		// Different literal, same shape: must reuse the cached template.
		if second, err = g.Execute(context.Background(), qOrf(7)); err != nil {
			t.Fatal(err)
		}
	})
	if d.Hits != 1 || d.Misses != 0 {
		t.Fatalf("warm execute: %+v, want 1 hit", d)
	}
	if len(first.Rows) != 1 || first.Rows[0][0].AsString() != "YAL00003C" {
		t.Fatalf("cold rows = %v", first.Rows)
	}
	if len(second.Rows) != 1 || second.Rows[0][0].AsString() != "YAL00007C" {
		t.Fatalf("warm rows = %v", second.Rows)
	}
}

func TestCachedResultsIdenticalToColdPlanned(t *testing.T) {
	cluster, g := testGrid(t, false, 60, 90)
	cfg := DefaultGDQSConfig()
	cfg.Adaptive = false
	cfg.QueryTimeout = 60 * time.Second
	cfg.PlanCacheSize = -1 // caching disabled: every execution plans cold
	testenv.Force(t, &cfg.MemoryBudgetBytes, &cfg.Parallelism)
	cold, err := NewGDQS(cluster, "coord", cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, q := range []string{q1, q2, qOrf(11)} {
		if _, err := g.Execute(context.Background(), q); err != nil {
			t.Fatalf("warm-up %q: %v", q, err)
		}
		cached, err := g.Execute(context.Background(), q) // served from cache
		if err != nil {
			t.Fatalf("cached %q: %v", q, err)
		}
		direct, err := cold.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("cold %q: %v", q, err)
		}
		cr, dr := sortedRows(cached), sortedRows(direct)
		if strings.Join(cr, "\n") != strings.Join(dr, "\n") {
			t.Fatalf("%q: cached plan produced different rows\ncached: %v\ncold:   %v", q, cr, dr)
		}
	}
}

func TestPreparedStatement(t *testing.T) {
	cluster, g := testGrid(t, false, 40, 120)
	stmt, err := g.Prepare("select i.ORF2 from protein_interactions i where i.ORF1 = ?")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 1 {
		t.Fatalf("NumParams = %d, want 1", stmt.NumParams())
	}

	// Reference results straight off the stored table.
	ints, _ := cluster.site("data1").store.Table("protein_interactions")
	want := make(map[string][]string)
	for _, tp := range ints.Tuples {
		k := tp[0].AsString()
		want[k] = append(want[k], tp[1].AsString())
	}

	checked := 0
	for orf, partners := range want {
		d := statsDelta(g, func() {
			res, err := stmt.Execute(context.Background(), orf)
			if err != nil {
				t.Fatalf("Execute(%q): %v", orf, err)
			}
			got := make([]string, len(res.Rows))
			for i, r := range res.Rows {
				got[i] = r[0].AsString()
			}
			sort.Strings(got)
			sort.Strings(partners)
			if strings.Join(got, ",") != strings.Join(partners, ",") {
				t.Fatalf("Execute(%q) = %v, want %v", orf, got, partners)
			}
		})
		if d.Misses != 0 {
			t.Fatalf("Execute(%q) re-planned: %+v (Prepare should have warmed the cache)", orf, d)
		}
		checked++
		if checked == 5 {
			break
		}
	}

	// Arity and type errors surface at bind time as plan errors.
	if _, err := stmt.Execute(context.Background()); qerr.KindOf(err) != qerr.KindPlan {
		t.Fatalf("no args: err = %v, want KindPlan", err)
	}
	if _, err := stmt.Execute(context.Background(), "a", "b"); qerr.KindOf(err) != qerr.KindPlan {
		t.Fatalf("extra args: err = %v, want KindPlan", err)
	}
	if _, err := stmt.Execute(context.Background(), 42); qerr.KindOf(err) != qerr.KindPlan {
		t.Fatalf("int arg for string param: err = %v, want KindPlan", err)
	}
}

func TestTopologyChangeInvalidatesPlanCache(t *testing.T) {
	cluster, g := testGrid(t, false, 40, 60)
	if _, err := g.Execute(context.Background(), qOrf(1)); err != nil {
		t.Fatal(err)
	}
	d := statsDelta(g, func() {
		if _, err := g.Execute(context.Background(), qOrf(2)); err != nil {
			t.Fatal(err)
		}
	})
	if d.Hits != 1 {
		t.Fatalf("pre-change execute: %+v, want 1 hit", d)
	}

	// A new compute resource bumps the topology epoch; the cached placement
	// no longer reflects the Grid and must be re-planned, not reused.
	v := cluster.Version()
	if err := cluster.AddComputeNode("ws2", 1.0,
		ws.NewRegistry(ws.Entropy{CostMs: 5}, ws.SequenceLength{})); err != nil {
		t.Fatal(err)
	}
	if cluster.Version() == v {
		t.Fatal("AddComputeNode did not advance the topology version")
	}
	d = statsDelta(g, func() {
		res, err := g.Execute(context.Background(), qOrf(2))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("rows = %d", len(res.Rows))
		}
	})
	if d.Misses != 1 || d.Hits != 0 {
		t.Fatalf("post-change execute: %+v, want 1 miss (stale entry invalidated)", d)
	}
}

func TestExecuteRepeatedAndConcurrent(t *testing.T) {
	// The acceptance bar: ≥64 concurrent clients against one coordinator,
	// exact results for every one, no goroutine leaks. MaxConcurrent stays at
	// the default (8), so most clients go through the admission queue.
	cluster, g := testGrid(t, false, 40, 60)

	// Warm up: fault in the plan templates and the lazily started machinery
	// so the goroutine baseline below is honest.
	if _, err := g.Execute(context.Background(), qOrf(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Execute(context.Background(), q2); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	base := runtime.NumGoroutine()

	// Reference result for q2.
	store := cluster.site("data1").store
	seqs, _ := store.Table("protein_sequences")
	ints, _ := store.Table("protein_interactions")
	valid := make(map[string]bool)
	for _, tp := range seqs.Tuples {
		valid[tp[0].AsString()] = true
	}
	q2Rows := 0
	for _, tp := range ints.Tuples {
		if valid[tp[0].AsString()] {
			q2Rows++
		}
	}

	const clients = 64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				res, err := g.Execute(context.Background(), qOrf(i%40))
				if err != nil {
					errs <- fmt.Errorf("client %d: %w", i, err)
					return
				}
				if len(res.Rows) != 1 || res.Rows[0][0].AsString() != fmt.Sprintf("YAL%05dC", i%40) {
					errs <- fmt.Errorf("client %d: rows = %v", i, res.Rows)
				}
			} else {
				res, err := g.Execute(context.Background(), q2)
				if err != nil {
					errs <- fmt.Errorf("client %d: %w", i, err)
					return
				}
				if len(res.Rows) != q2Rows {
					errs <- fmt.Errorf("client %d: q2 rows = %d, want %d", i, len(res.Rows), q2Rows)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every session's goroutines must wind down; allow the runtime a moment.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestExecuteQueueTimeout(t *testing.T) {
	cluster, _ := testGrid(t, false, 40, 60)
	cfg := DefaultGDQSConfig()
	cfg.Adaptive = false
	cfg.QueryTimeout = 60 * time.Second
	cfg.MaxConcurrent = 1
	cfg.QueueTimeout = 10 * time.Millisecond
	testenv.Force(t, &cfg.MemoryBudgetBytes, &cfg.Parallelism)
	g, err := NewGDQS(cluster, "coord", cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Park a session on the single slot, then watch a second query time out
	// in the admission queue rather than run.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		release, err := g.adm.acquire(context.Background())
		if err != nil {
			t.Error(err)
			close(started)
			return
		}
		close(started)
		<-ctx.Done()
		release()
	}()
	<-started

	_, err = g.Execute(context.Background(), qOrf(1))
	if !errors.Is(err, qerr.ErrTimeout) || qerr.KindOf(err) != qerr.KindAdmission {
		t.Fatalf("err = %v, want admission timeout", err)
	}
	cancel()
	wg.Wait()
}

// TestEqualNormalizedFormsShareOnePlan pins the cache-key contract the fuzz
// target checks probabilistically: queries that differ only in comparison
// literals normalize to one key, and planning that shared template twice
// yields structurally identical physical plans — so a cache hit can never
// change plan shape, only the literals bound into it.
func TestEqualNormalizedFormsShareOnePlan(t *testing.T) {
	_, g := testGrid(t, false, 40, 60)

	keyA, tmplA, slotsA, err := sqlparse.NormalizeSQL(qOrf(3))
	if err != nil {
		t.Fatal(err)
	}
	keyB, tmplB, slotsB, err := sqlparse.NormalizeSQL(qOrf(29))
	if err != nil {
		t.Fatal(err)
	}
	if keyA != keyB {
		t.Fatalf("literal variants normalized to different keys:\n  %q\n  %q", keyA, keyB)
	}

	cpA, err := g.planTemplate(tmplA, slotsA)
	if err != nil {
		t.Fatal(err)
	}
	cpB, err := g.planTemplate(tmplB, slotsB)
	if err != nil {
		t.Fatal(err)
	}
	if ea, eb := cpA.template.Explain(), cpB.template.Explain(); ea != eb {
		t.Fatalf("same key planned to different structures:\n--- A ---\n%s\n--- B ---\n%s", ea, eb)
	}
}

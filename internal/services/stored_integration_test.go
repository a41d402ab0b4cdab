package services

import (
	"context"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/testenv"
	"repro/internal/ws"
)

// storedGrid builds a grid whose demo tables live as block-framed runs on
// tables (posix or memory), separate from the coordinator's spill backend,
// and returns a coordinator with the given scan/memory configuration.
func storedGrid(t *testing.T, tables storage.Backend, seqs, ints int, mut func(*GDQSConfig)) (*Cluster, *GDQS) {
	t.Helper()
	cluster := NewCluster(ClusterConfig{
		Scale: 10 * time.Microsecond,
		Costs: engine.Costs{ScanMs: 0.5, FilterMs: 0.01, ProjectMs: 0.01,
			JoinBuildMs: 0.05, JoinProbeMs: 0.3, StartupMs: 50},
		BufferTuples:    25,
		CheckpointEvery: 25,
		Buckets:         64,
	})
	store, err := dataset.DemoStored(tables, seqs, ints)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.AddDataNode("data1", store); err != nil {
		t.Fatal(err)
	}
	for _, n := range []simnet.NodeID{"ws0", "ws1"} {
		if err := cluster.AddComputeNode(n, 1.0,
			ws.NewRegistry(ws.Entropy{CostMs: 5}, ws.SequenceLength{})); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultGDQSConfig()
	cfg.Adaptive = false
	cfg.QueryTimeout = 120 * time.Second
	if mut != nil {
		mut(&cfg)
	}
	testenv.Force(t, &cfg.MemoryBudgetBytes, &cfg.Parallelism)
	g, err := NewGDQS(cluster, "coord", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	return cluster, g
}

// sameRows compares two result row sets by canonical encoding.
func sameRows(t *testing.T, label string, want, got []relation.Tuple) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if string(relation.EncodeTuple(want[i])) != string(relation.EncodeTuple(got[i])) {
			t.Fatalf("%s: row %d diverged:\n%v\n%v",
				label, i, got[i].Format(), want[i].Format())
		}
	}
}

// TestStoredTableQueryMatchesInMemory runs the acceptance join+aggregate over
// stored tables on both backends, serial, and demands byte-identical rows to
// the in-memory run.
func TestStoredTableQueryMatchesInMemory(t *testing.T) {
	const seqs, ints = 300, 900
	_, ref := spillGrid(t, seqs, ints, 0, "")
	want, err := ref.Execute(context.Background(), qJoinAgg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("reference run produced no rows")
	}
	posix, err := storage.NewPosix(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string]storage.Backend{"memory": storage.NewMemory(), "posix": posix}
	for name, backend := range tables {
		t.Run(name, func(t *testing.T) {
			defer backend.Close()
			o := obs.Default()
			blocks0 := o.Counter(obs.MScanBlocksRead).Value()
			spilled0 := o.Counter(obs.MSpillPartitions).Value()
			_, g := storedGrid(t, backend, seqs, ints, nil)
			got, err := g.Execute(context.Background(), qJoinAgg)
			if err != nil {
				t.Fatalf("stored execute: %v", err)
			}
			sameRows(t, name, want.Rows, got.Rows)
			if o.Counter(obs.MScanBlocksRead).Value() == blocks0 {
				t.Fatal("query never took the block-scan path")
			}
			// This test sets no budget of its own: when one is in force it is
			// the one `make lowmem` forces on the whole suite (serial, then
			// width 4), and the lane means something only if the join and the
			// aggregate then really spill.
			if g.cfg.MemoryBudgetBytes > 0 && o.Counter(obs.MSpillPartitions).Value() == spilled0 {
				t.Fatalf("forced %d-byte budget (width %d) never spilled a partition", g.cfg.MemoryBudgetBytes, g.cfg.Parallelism)
			}
		})
	}
}

// TestStoredScanParallelParity runs the stored-table scan morsel-parallel at
// widths 1, 2 and 4 and demands row parity with the serial in-memory
// reference, zero inflight bytes and no leaked spill runs at every width.
func TestStoredScanParallelParity(t *testing.T) {
	const seqs, ints = 300, 900
	_, ref := spillGrid(t, seqs, ints, 0, "")
	want, err := ref.Execute(context.Background(), qJoinAgg)
	if err != nil {
		t.Fatal(err)
	}

	for _, width := range []int{1, 2, 4} {
		t.Run("width-"+strconv.Itoa(width), func(t *testing.T) {
			backend, err := storage.NewPosix(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer backend.Close()
			_, g := storedGrid(t, backend, seqs, ints, func(cfg *GDQSConfig) {
				cfg.Parallelism = width
				cfg.MemoryBudgetBytes = 1 << 20
			})
			got, err := g.Execute(context.Background(), qJoinAgg)
			if err != nil {
				t.Fatalf("width %d: %v", width, err)
			}
			sameRows(t, "parallel", want.Rows, got.Rows)
			if n := obs.Default().Gauge(obs.MMemInflight).Value(); n != 0 {
				t.Fatalf("width %d: mem_inflight_bytes = %d, want 0", width, n)
			}
			runs, err := g.SpillBackend().List()
			if err != nil {
				t.Fatal(err)
			}
			if len(runs) != 0 {
				t.Fatalf("width %d: leaked spill runs %v", width, runs)
			}
		})
	}
}

// TestStoredOrderByLimitFusion checks ORDER BY + LIMIT end to end: the
// query over stored tables, compiled to Limit over Sort, must match the
// unlimited ordering truncated by hand.
func TestStoredOrderByLimitFusion(t *testing.T) {
	const qFull = "select i.ORF1, count(*) AS n from protein_interactions i group by i.ORF1 order by n desc, i.ORF1"
	const qTop = qFull + " limit 7"
	_, ref := spillGrid(t, 200, 700, 0, "")
	full, err := ref.Execute(context.Background(), qFull)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Rows) <= 7 {
		t.Fatalf("reference has only %d rows", len(full.Rows))
	}
	backend := storage.NewMemory()
	defer backend.Close()
	_, g := storedGrid(t, backend, 200, 700, func(cfg *GDQSConfig) {
		cfg.MemoryBudgetBytes = 1 << 20
	})
	got, err := g.Execute(context.Background(), qTop)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "topn", full.Rows[:7], got.Rows)
	if n := obs.Default().Gauge(obs.MMemInflight).Value(); n != 0 {
		t.Fatalf("mem_inflight_bytes = %d after Top-N query, want 0", n)
	}
}

// TestBigTableStoredScan is the tentpole acceptance scenario: posix-stored
// tables at least 16x the query memory budget stream through the acceptance
// join+aggregate, producing rows byte-identical to the in-memory run, with
// zero leaked runs and zero inflight bytes. GRIDDQP_BIGTABLE_ROWS scales the
// protein_sequences cardinality up (default 3000; interactions follow at the
// demo ratio) — `make bigtable` runs it at the default, CI may push it
// multi-GB.
func TestBigTableStoredScan(t *testing.T) {
	seqs := 3000
	if env := os.Getenv("GRIDDQP_BIGTABLE_ROWS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n <= 0 {
			t.Fatalf("GRIDDQP_BIGTABLE_ROWS=%q invalid", env)
		}
		seqs = n
	}
	ints := seqs * 47 / 30 // the demo 3000:4700 ratio

	_, ref := spillGrid(t, seqs, ints, 0, "")
	want, err := ref.Execute(context.Background(), qJoinAgg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("reference run produced no rows")
	}

	backend, err := storage.NewPosix(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	cluster, g := storedGrid(t, backend, seqs, ints, func(cfg *GDQSConfig) {
		cfg.SpillDir = t.TempDir()
	})
	// Budget from the catalog's stored-table volume: tables must dwarf it.
	var total int64
	for _, name := range []string{"protein_sequences", "protein_interactions"} {
		meta, err := cluster.Catalog().Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if meta.TotalBytes <= 0 {
			t.Fatalf("catalog TotalBytes missing for %q", name)
		}
		total += meta.TotalBytes
	}
	budget := total / 16
	g.cfg.MemoryBudgetBytes = budget

	o := obs.Default()
	blocks0 := o.Counter(obs.MScanBlocksRead).Value()
	got, err := g.Execute(context.Background(), qJoinAgg)
	if err != nil {
		t.Fatalf("bigtable execute (%d rows, budget %d): %v", seqs, budget, err)
	}
	sameRows(t, "bigtable", want.Rows, got.Rows)
	if o.Counter(obs.MScanBlocksRead).Value() == blocks0 {
		t.Fatal("bigtable run never read stored blocks")
	}
	if n := o.Gauge(obs.MMemInflight).Value(); n != 0 {
		t.Fatalf("mem_inflight_bytes = %d after bigtable query, want 0", n)
	}
	runs, err := g.SpillBackend().List()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 0 {
		t.Fatalf("spill backend leaks runs: %v", runs)
	}
	// The base tables themselves must still be intact on their own backend.
	names, err := backend.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("table backend holds %v, want the two base runs", names)
	}
}

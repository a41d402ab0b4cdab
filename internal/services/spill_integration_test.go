package services

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/simnet"
	"repro/internal/testenv"
	"repro/internal/transport"
	"repro/internal/vtime"
	"repro/internal/ws"
)

// qJoinAgg orders by the group key, so the result is fully deterministic and
// row-for-row comparable across budgeted and unbudgeted runs.
const qJoinAgg = "select p.ORF, count(*) AS n from protein_sequences p, protein_interactions i where i.ORF1 = p.ORF group by p.ORF order by p.ORF"

// spillGrid is testGrid with a memory budget and optional posix spill dir.
func spillGrid(t *testing.T, seqs, ints int, budget int64, spillDir string) (*Cluster, *GDQS) {
	t.Helper()
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
	cfg.Adaptive = false
	cfg.QueryTimeout = 60 * time.Second
	cfg.MemoryBudgetBytes = budget
	cfg.SpillDir = spillDir
	testenv.Force(t, &cfg.MemoryBudgetBytes, &cfg.Parallelism)
	g, err := NewGDQS(cluster, "coord", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	return cluster, g
}

// tableBytes sums the wire size of every tuple in the named demo table.
func tableBytes(t *testing.T, c *Cluster, name string) int64 {
	t.Helper()
	tbl, err := c.site("data1").store.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, tp := range tbl.Tuples {
		total += int64(len(relation.EncodeTuple(tp)))
	}
	return total
}

// TestBudgetedQueryMatchesUnbudgeted is the PR's acceptance scenario: a
// join+aggregate query over tables at least 4x the memory budget completes on
// both spill backends with rows byte-identical to the unbudgeted run, spills
// for real (nonzero counters), and leaks no runs.
func TestBudgetedQueryMatchesUnbudgeted(t *testing.T) {
	const seqs, ints = 300, 900
	_, ref := spillGrid(t, seqs, ints, 0, "")
	want, err := ref.Execute(context.Background(), qJoinAgg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("reference run produced no rows")
	}

	for _, backend := range []string{"memory", "posix"} {
		t.Run(backend, func(t *testing.T) {
			dir := ""
			if backend == "posix" {
				dir = t.TempDir()
			}
			// Budget sized after the fact against the actual table bytes; the
			// grid is rebuilt below with the real value.
			probeCluster, _ := spillGrid(t, seqs, ints, 0, "")
			total := tableBytes(t, probeCluster, "protein_sequences") +
				tableBytes(t, probeCluster, "protein_interactions")
			budget := total / 8
			if total < 4*budget {
				t.Fatalf("tables (%d bytes) not >= 4x budget (%d)", total, budget)
			}

			cluster, g := spillGrid(t, seqs, ints, budget, dir)
			if got := tableBytes(t, cluster, "protein_sequences"); got == 0 {
				t.Fatal("demo store empty")
			}
			o := obs.Default()
			b0 := o.Counter(obs.MSpillBytes).Value()
			p0 := o.Counter(obs.MSpillPartitions).Value()
			got, err := g.Execute(context.Background(), qJoinAgg)
			if err != nil {
				t.Fatalf("budgeted execute: %v", err)
			}
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("rows = %d, want %d", len(got.Rows), len(want.Rows))
			}
			for i := range want.Rows {
				w := string(relation.EncodeTuple(want.Rows[i]))
				gr := string(relation.EncodeTuple(got.Rows[i]))
				if w != gr {
					t.Fatalf("row %d diverged under budget:\n%v\n%v",
						i, got.Rows[i].Format(), want.Rows[i].Format())
				}
			}
			if o.Counter(obs.MSpillBytes).Value() == b0 ||
				o.Counter(obs.MSpillPartitions).Value() == p0 {
				t.Fatalf("budget of %d bytes over %d-byte tables never spilled", budget, total)
			}
			runs, err := g.SpillBackend().List()
			if err != nil {
				t.Fatal(err)
			}
			if len(runs) != 0 {
				t.Fatalf("spill backend leaks runs after query: %v", runs)
			}
		})
	}
}

// TestBudgetedAdaptiveRetrospective re-runs the R1 acceptance scenario under
// an active memory budget: retrospective bucket eviction and replay must stay
// exact while the join is spilling.
func TestBudgetedAdaptiveRetrospective(t *testing.T) {
	_, ref := testGrid(t, false, 150, 500)
	want, err := ref.Execute(context.Background(), q2)
	if err != nil {
		t.Fatal(err)
	}

	cluster, _ := spillGrid(t, 150, 500, 2048, "")
	// Second coordinator on the same grid, adaptive with R1 under the budget.
	cfg := DefaultGDQSConfig()
	cfg.QueryTimeout = 60 * time.Second
	cfg.MemoryBudgetBytes = 2048
	cfg.Responder.Response = core.R1
	testenv.Force(t, &cfg.MemoryBudgetBytes, &cfg.Parallelism)
	g2, err := NewGDQS(cluster, "coord", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cluster.Node("ws1").SetPerturbation(vtime.Multiplier(10))
	o := obs.Default()
	b0 := o.Counter(obs.MSpillBytes).Value()
	got, err := g2.Execute(context.Background(), q2)
	if err != nil {
		t.Fatalf("adaptive budgeted execute: %v", err)
	}
	if strings.Join(sortedRows(got), "\n") != strings.Join(sortedRows(want), "\n") {
		t.Fatal("R1 under spill diverged from the unbudgeted static run")
	}
	if o.Counter(obs.MSpillBytes).Value() == b0 {
		t.Fatal("2KiB budget never spilled: scenario exercised nothing")
	}
	runs, err := g2.SpillBackend().List()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 0 {
		t.Fatalf("spill backend leaks runs after adaptive query: %v", runs)
	}
}

// TestParallelBudgetedQueryMatchesSerial runs the acceptance scenario with a
// width-4 morsel worker pool AND a memory budget together: parallel joins and
// aggregates spill under one shared budget and must return
// rows byte-identical to the serial unbudgeted run, leaking neither runs nor
// inflight bytes.
func TestParallelBudgetedQueryMatchesSerial(t *testing.T) {
	const seqs, ints = 300, 900
	cluster, ref := spillGrid(t, seqs, ints, 0, "")
	want, err := ref.Execute(context.Background(), qJoinAgg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("reference run produced no rows")
	}

	total := tableBytes(t, cluster, "protein_sequences") +
		tableBytes(t, cluster, "protein_interactions")
	cfg := DefaultGDQSConfig()
	cfg.Adaptive = false
	cfg.QueryTimeout = 60 * time.Second
	cfg.MemoryBudgetBytes = total / 8
	cfg.Parallelism = 4
	testenv.Force(t, &cfg.MemoryBudgetBytes, &cfg.Parallelism)
	g, err := NewGDQS(cluster, "coord", cfg)
	if err != nil {
		t.Fatal(err)
	}

	o := obs.Default()
	b0 := o.Counter(obs.MSpillBytes).Value()
	got, err := g.Execute(context.Background(), qJoinAgg)
	if err != nil {
		t.Fatalf("parallel budgeted execute: %v", err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("rows = %d, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		w := string(relation.EncodeTuple(want.Rows[i]))
		gr := string(relation.EncodeTuple(got.Rows[i]))
		if w != gr {
			t.Fatalf("row %d diverged under parallel budget:\n%v\n%v",
				i, got.Rows[i].Format(), want.Rows[i].Format())
		}
	}
	if o.Counter(obs.MSpillBytes).Value() == b0 {
		t.Fatalf("budget of %d bytes never spilled at width 4", cfg.MemoryBudgetBytes)
	}
	runs, err := g.SpillBackend().List()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 0 {
		t.Fatalf("spill backend leaks runs after parallel budgeted query: %v", runs)
	}
	if n := o.Gauge(obs.MMemInflight).Value(); n != 0 {
		t.Fatalf("mem_inflight_bytes = %d after parallel budgeted query, want 0", n)
	}
}

// TestParallelBudgetedAdaptiveRetrospective is the R1 acceptance scenario at
// Parallelism 4 under budget: the scans run four morsel workers while each
// join instance spills on its one driver, and retrospective evict/replay,
// applied by that driver, must stay exact.
func TestParallelBudgetedAdaptiveRetrospective(t *testing.T) {
	_, ref := testGrid(t, false, 150, 500)
	want, err := ref.Execute(context.Background(), q2)
	if err != nil {
		t.Fatal(err)
	}

	cluster, _ := spillGrid(t, 150, 500, 2048, "")
	cfg := DefaultGDQSConfig()
	cfg.QueryTimeout = 60 * time.Second
	cfg.MemoryBudgetBytes = 2048
	cfg.Parallelism = 4
	cfg.Responder.Response = core.R1
	testenv.Force(t, &cfg.MemoryBudgetBytes, &cfg.Parallelism)
	g2, err := NewGDQS(cluster, "coord", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cluster.Node("ws1").SetPerturbation(vtime.Multiplier(10))
	o := obs.Default()
	b0 := o.Counter(obs.MSpillBytes).Value()
	got, err := g2.Execute(context.Background(), q2)
	if err != nil {
		t.Fatalf("parallel adaptive budgeted execute: %v", err)
	}
	if strings.Join(sortedRows(got), "\n") != strings.Join(sortedRows(want), "\n") {
		t.Fatal("R1 under parallel spill diverged from the unbudgeted static run")
	}
	if o.Counter(obs.MSpillBytes).Value() == b0 {
		t.Fatal("2KiB budget never spilled at width 4: scenario exercised nothing")
	}
	runs, err := g2.SpillBackend().List()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 0 {
		t.Fatalf("spill backend leaks runs after parallel adaptive query: %v", runs)
	}
	if n := o.Gauge(obs.MMemInflight).Value(); n != 0 {
		t.Fatalf("mem_inflight_bytes = %d after parallel adaptive query, want 0", n)
	}
}

// trafficCounter wraps a session's transport and counts what it sends: data
// buffers, checkpoints (a data message closing an interval), acks, and EOS
// per stream.
type trafficCounter struct {
	transport.Transport
	mu                sync.Mutex
	data, ckpts, acks int
	eos               map[string]int
}

func (c *trafficCounter) Send(from, to simnet.NodeID, service string, msg *transport.Message) (float64, error) {
	c.mu.Lock()
	switch msg.Kind {
	case transport.KindData:
		if len(msg.Tuples) > 0 {
			c.data++
		}
		if msg.Checkpoint > 0 {
			c.ckpts++
		}
	case transport.KindAck:
		c.acks++
	case transport.KindEOS:
		c.eos[fmt.Sprintf("%s/%d->%d", msg.Exchange, msg.ProducerIdx, msg.ConsumerIdx)]++
	}
	c.mu.Unlock()
	return c.Transport.Send(from, to, service, msg)
}

// countTraffic routes g's sessions through a fresh trafficCounter.
func countTraffic(g *GDQS) *trafficCounter {
	c := &trafficCounter{Transport: g.tr, eos: map[string]int{}}
	g.tr = c
	return c
}

// TestUnloggedSessionTraffic: a session without adaptivity keeps no recovery
// log, so the join+aggregate query sends its data buffers and one EOS per
// stream and nothing else: no checkpoint, no ack. Its rows match the
// adaptive (logged) run at every width, budget and spill backend, and the
// adaptive run still checkpoints and acknowledges.
func TestUnloggedSessionTraffic(t *testing.T) {
	const seqs, ints = 300, 900
	cluster, _ := spillGrid(t, seqs, ints, 0, "")
	cfg := DefaultGDQSConfig()
	cfg.QueryTimeout = 60 * time.Second
	adaptive, err := NewGDQS(cluster, "coord", cfg)
	if err != nil {
		t.Fatal(err)
	}
	logged := countTraffic(adaptive)
	want, err := adaptive.Execute(context.Background(), qJoinAgg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 || logged.ckpts == 0 || logged.acks == 0 {
		t.Fatalf("adaptive run: %d rows, %d checkpoints, %d acks", len(want.Rows), logged.ckpts, logged.acks)
	}
	for _, width := range []int{1, 4} {
		for _, budget := range []int64{0, 64 << 10} {
			for _, backend := range []string{"memory", "posix"} {
				t.Run(fmt.Sprintf("w%d/budget%d/%s", width, budget, backend), func(t *testing.T) {
					cfg := DefaultGDQSConfig()
					cfg.Adaptive = false
					cfg.QueryTimeout = 60 * time.Second
					cfg.MemoryBudgetBytes = budget
					cfg.Parallelism = width
					if backend == "posix" {
						cfg.SpillDir = t.TempDir()
					}
					testenv.Force(t, &cfg.MemoryBudgetBytes, &cfg.Parallelism)
					g, err := NewGDQS(cluster, "coord", cfg)
					if err != nil {
						t.Fatal(err)
					}
					c := countTraffic(g)
					got, err := g.Execute(context.Background(), qJoinAgg)
					if err != nil {
						t.Fatal(err)
					}
					if strings.Join(sortedRows(got), "\n") != strings.Join(sortedRows(want), "\n") {
						t.Fatal("rows differ from the adaptive run")
					}
					if c.ckpts != 0 || c.acks != 0 || c.data == 0 {
						t.Fatalf("%d data buffers, %d checkpoints, %d acks", c.data, c.ckpts, c.acks)
					}
					streams := 0
					for _, f := range got.Stats.Plan.Fragments {
						if f.Output != nil {
							streams += len(f.Instances) * len(got.Stats.Plan.Fragment(f.Output.ConsumerFragment).Instances)
						}
					}
					for s, n := range c.eos {
						if n != 1 {
							t.Errorf("stream %s got %d EOS", s, n)
						}
					}
					if len(c.eos) != streams {
						t.Fatalf("EOS on %d streams, the plan has %d", len(c.eos), streams)
					}
				})
			}
		}
	}
}

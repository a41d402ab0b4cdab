package services

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/physical"
	"repro/internal/qerr"
	"repro/internal/relation"
	"repro/internal/simnet"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/testenv"
	"repro/internal/vtime"
	"repro/internal/ws"
)

// queryGoroutines captures the stacks of every goroutine currently inside
// this module's code, excluding the test runner and this file's own
// helpers. It is the leak detector: after a query ends — however it ends —
// no driver, delivery, adaptation or collector goroutine may remain.
func queryGoroutines() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	var out []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if !strings.Contains(g, "repro/internal") {
			continue
		}
		if strings.Contains(g, "testing.tRunner") || strings.Contains(g, "lifecycle_test.go") {
			continue
		}
		out = append(out, g)
	}
	return out
}

// waitNoExtraGoroutines polls until the module goroutine count returns to
// the pre-query baseline. Polling (rather than a single check) tolerates
// teardown that is in flight when the query call returns.
func waitNoExtraGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var gs []string
	for {
		gs = queryGoroutines()
		if len(gs) <= baseline {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%d goroutine(s) leaked past the query (baseline %d):\n\n%s",
		len(gs)-baseline, baseline, strings.Join(gs, "\n\n"))
}

// gateService blocks its first invocation until released, signalling the
// test when a fragment driver is genuinely inside a web-service call.
type gateService struct {
	started   chan struct{}
	release   chan struct{}
	startOnce sync.Once
}

func newGateService() *gateService {
	return &gateService{started: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateService) Name() string              { return "GateAnalyser" }
func (g *gateService) ArgTypes() []relation.Type { return []relation.Type{relation.TString} }
func (g *gateService) ResultType() relation.Type { return relation.TFloat }
func (g *gateService) BaseCostMs() float64       { return 1 }
func (g *gateService) Invoke(args []relation.Value) (relation.Value, error) {
	g.startOnce.Do(func() { close(g.started) })
	<-g.release
	return relation.Float(1), nil
}

// slowService really sleeps per call, so a short QueryTimeout expires while
// fragments are still mid-stream.
type slowService struct{ d time.Duration }

func (s slowService) Name() string              { return "SlowAnalyser" }
func (s slowService) ArgTypes() []relation.Type { return []relation.Type{relation.TString} }
func (s slowService) ResultType() relation.Type { return relation.TFloat }
func (s slowService) BaseCostMs() float64       { return 1 }
func (s slowService) Invoke(args []relation.Value) (relation.Value, error) {
	time.Sleep(s.d)
	return relation.Float(1), nil
}

// failService fails every invocation — the fragment-error exit path.
type failService struct{}

func (failService) Name() string              { return "FailAnalyser" }
func (failService) ArgTypes() []relation.Type { return []relation.Type{relation.TString} }
func (failService) ResultType() relation.Type { return relation.TFloat }
func (failService) BaseCostMs() float64       { return 1 }
func (failService) Invoke(args []relation.Value) (relation.Value, error) {
	return relation.Null, fmt.Errorf("ws: FailAnalyser always fails")
}

// lifecycleGrid is testGrid plus extra web services on the compute nodes.
func lifecycleGrid(t *testing.T, adaptive bool, seqs, ints int, extra ...ws.Service) (*Cluster, *GDQS) {
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
	svcs := append([]ws.Service{ws.Entropy{CostMs: 5}, ws.SequenceLength{}}, extra...)
	for _, n := range []simnet.NodeID{"ws0", "ws1"} {
		if err := cluster.AddComputeNode(n, 1.0, ws.NewRegistry(svcs...)); err != nil {
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

// lifecycleDeployment is one hosting of the same Grid and the coordinator
// the lifecycle cases take as an input: they hold for the shared
// QuerySession whoever hosts it.
type lifecycleDeployment struct {
	// host is the coordinator's.
	host    *host
	execute func(ctx context.Context, sql string) (*QueryResult, error)
	// plan compiles an execution-ready plan as execute would.
	plan func(sql string) (*physical.Plan, error)
	// spills are the spill backends of every participant.
	spills []storage.Backend
}

// lifecycleHosts builds the Grid of lifecycleGrid under each coordinator:
// the GDQS on a Cluster, and a RemoteCoordinator with three Evaluators over
// one in-process transport. timeout is the per-query deadline.
var lifecycleHosts = []struct {
	name  string
	build func(t *testing.T, seqs, ints int, timeout time.Duration, extra ...ws.Service) *lifecycleDeployment
}{
	{"gdqs", func(t *testing.T, seqs, ints int, timeout time.Duration, extra ...ws.Service) *lifecycleDeployment {
		cluster, _ := lifecycleGrid(t, true, seqs, ints, extra...)
		cfg := DefaultGDQSConfig()
		cfg.QueryTimeout = timeout
		testenv.Force(t, &cfg.MemoryBudgetBytes, &cfg.Parallelism)
		g, err := NewGDQS(cluster, "coordL", cfg)
		if err != nil {
			t.Fatal(err)
		}
		return &lifecycleDeployment{
			host:    g.host,
			execute: g.Execute,
			plan: func(sql string) (*physical.Plan, error) {
				stmt, err := sqlparse.Parse(sql)
				if err != nil {
					return nil, err
				}
				return g.planDirect(stmt)
			},
			spills: []storage.Backend{g.spill},
		}
	}},
	{"remote", func(t *testing.T, seqs, ints int, timeout time.Duration, extra ...ws.Service) *lifecycleDeployment {
		manifest := Manifest{
			Scale: 10 * time.Microsecond,
			Costs: engine.Costs{ScanMs: 0.5, FilterMs: 0.01, ProjectMs: 0.01,
				JoinBuildMs: 0.05, JoinProbeMs: 0.3, StartupMs: 50},
			Buckets: 64, BufferTuples: 25, CheckpointEvery: 25,
			Coordinator: "coord",
			DataNodes:   []DataNodeSpec{{Node: "data1", Sequences: seqs, Interactions: ints}},
			Compute: []ComputeNodeSpec{
				{Node: "ws0", Speed: 1, EntropyCostMs: 5},
				{Node: "ws1", Speed: 1, EntropyCostMs: 5},
			},
			Adaptive: true,
		}
		testenv.Force(t, &manifest.MemoryBudgetBytes, &manifest.Parallelism)
		coord, evaluators := remoteInProc(t, manifest)
		addRemoteServices(t, coord, evaluators, extra...)
		d := &lifecycleDeployment{
			host: coord.host,
			execute: func(ctx context.Context, sql string) (*QueryResult, error) {
				return coord.Execute(ctx, sql, timeout)
			},
			plan:   coord.plan,
			spills: []storage.Backend{coord.spill},
		}
		for _, ev := range evaluators {
			d.spills = append(d.spills, ev.spill)
		}
		return d
	}},
}

// released is the post-condition of every lifecycle case: no goroutine past
// the baseline and not one spill run left on any participant.
func (d *lifecycleDeployment) released(t *testing.T, baseline int) {
	t.Helper()
	waitNoExtraGoroutines(t, baseline)
	for i, b := range d.spills {
		if runs, err := b.List(); err != nil || len(runs) != 0 {
			t.Errorf("spill backend %d left runs %v (err %v)", i, runs, err)
		}
	}
}

func TestLifecycleSuccessReleasesGoroutines(t *testing.T) {
	for _, h := range lifecycleHosts {
		t.Run(h.name, func(t *testing.T) {
			d := h.build(t, 120, 60, time.Minute)
			baseline := len(queryGoroutines())
			res, err := d.execute(context.Background(), q1)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 120 {
				t.Fatalf("rows = %d, want 120", len(res.Rows))
			}
			d.released(t, baseline)
		})
	}
}

func TestLifecycleCancelReleasesGoroutines(t *testing.T) {
	for _, h := range lifecycleHosts {
		t.Run(h.name, func(t *testing.T) {
			gate := newGateService()
			d := h.build(t, 120, 60, time.Minute, gate)
			baseline := len(queryGoroutines())

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			errCh := make(chan error, 1)
			go func() {
				_, err := d.execute(ctx, "select GateAnalyser(p.sequence) from protein_sequences p")
				errCh <- err
			}()

			// Cancel while a fragment driver is provably inside a service call.
			<-gate.started
			cancel()
			close(gate.release)

			err := <-errCh
			if !errors.Is(err, qerr.ErrCanceled) {
				t.Fatalf("err = %v, want qerr.ErrCanceled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v does not unwrap to context.Canceled", err)
			}
			d.released(t, baseline)

			// Released state: the same deployment runs the next query cleanly.
			res, err := d.execute(context.Background(), q1)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 120 {
				t.Fatalf("follow-up rows = %d, want 120", len(res.Rows))
			}
			d.released(t, baseline)
		})
	}
}

func TestLifecycleTimeoutReleasesGoroutines(t *testing.T) {
	for _, h := range lifecycleHosts {
		t.Run(h.name, func(t *testing.T) {
			// 1200 calls of a millisecond each outlast the deadline forty times
			// over serially, and still five times at the width `make lowmem`
			// forces (120 rows finished inside it about one run in four there).
			d := h.build(t, 1200, 60, 30*time.Millisecond, slowService{d: time.Millisecond})
			baseline := len(queryGoroutines())
			_, err := d.execute(context.Background(), "select SlowAnalyser(p.sequence) from protein_sequences p")
			if !errors.Is(err, qerr.ErrTimeout) {
				t.Fatalf("err = %v, want qerr.ErrTimeout", err)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v does not unwrap to context.DeadlineExceeded", err)
			}
			d.released(t, baseline)
		})
	}
}

// failingCreates is a spill backend on which no run can be created.
type failingCreates struct{ storage.Backend }

func (failingCreates) Create(name string) (storage.RunWriter, error) {
	return nil, fmt.Errorf("storage: cannot create run %s: disk full", name)
}

func TestLifecycleFragmentErrorReleasesGoroutines(t *testing.T) {
	t.Run("gdqs-service", func(t *testing.T) {
		_, g := lifecycleGrid(t, true, 120, 60, failService{})
		baseline := len(queryGoroutines())
		_, err := g.Execute(context.Background(), "select FailAnalyser(p.sequence) from protein_sequences p")
		var qe *qerr.Error
		if !errors.As(err, &qe) || qe.Kind != qerr.KindExec {
			t.Fatalf("err = %v, want *qerr.Error with KindExec", err)
		}
		if errors.Is(err, qerr.ErrCanceled) || errors.Is(err, qerr.ErrTimeout) {
			t.Fatalf("fragment failure misclassified as cancellation: %v", err)
		}
		if !strings.Contains(err.Error(), "FailAnalyser") {
			t.Fatalf("err = %v does not name the failing service", err)
		}
		waitNoExtraGoroutines(t, baseline)
	})
	// Over both hosts the failure must happen in a fragment the coordinator's process hosts
	// (an evaluator has no message to report its own with, DESIGN.md §8): the
	// top fragment's sort, over budget, cannot create its first run.
	for _, h := range lifecycleHosts {
		t.Run(h.name, func(t *testing.T) {
			d := h.build(t, 120, 600, time.Minute)
			d.host.cfg.MemoryBudgetBytes = 2048
			d.host.spill = failingCreates{d.host.spill}
			baseline := len(queryGoroutines())
			_, err := d.execute(context.Background(), qJoinAgg)
			if err == nil {
				t.Fatal("expected fragment error")
			}
			var qe *qerr.Error
			if !errors.As(err, &qe) || qe.Kind != qerr.KindExec {
				t.Fatalf("err = %v, want *qerr.Error with KindExec", err)
			}
			if errors.Is(err, qerr.ErrCanceled) || errors.Is(err, qerr.ErrTimeout) {
				t.Fatalf("fragment failure misclassified as cancellation: %v", err)
			}
			if !strings.Contains(err.Error(), "disk full") {
				t.Fatalf("err = %v does not name the failing backend", err)
			}
			d.released(t, baseline)
		})
	}
}

// cancelOnTopic cancels ctx the first time anything is published on the
// topic, optionally after a delay — pinning cancellation to a precise phase
// of the adaptivity protocol.
func cancelOnTopic(t *testing.T, cluster *Cluster, topic bus.Topic, delay time.Duration, cancel context.CancelFunc) *bus.Subscription {
	t.Helper()
	var once sync.Once
	sub := cluster.bus.Subscribe("lifecycle-watch", "coord", topic, func(bus.Notification) {
		once.Do(func() {
			if delay > 0 {
				time.Sleep(delay)
			}
			cancel()
		})
	})
	t.Cleanup(sub.Cancel)
	return sub
}

func TestLifecycleCancelMidAdaptation(t *testing.T) {
	// Cancel exactly when the Diagnoser hands the Responder a rebalancing
	// proposal: the Responder is about to (or has just started to) run the
	// quiesce/redistribute protocol against live fragments.
	cluster, _ := lifecycleGrid(t, true, 300, 60)
	cluster.Node("ws1").SetPerturbation(vtime.Multiplier(10))
	cfg := DefaultGDQSConfig()
	cfg.Responder.Response = core.R1
	cfg.QueryTimeout = 60 * time.Second
	testenv.Force(t, &cfg.MemoryBudgetBytes, &cfg.Parallelism)
	g, err := NewGDQS(cluster, "coordA", cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelOnTopic(t, cluster, core.TopicDiagnosis, 0, cancel)
	baseline := len(queryGoroutines())

	_, err = g.Execute(ctx, q1)
	if !errors.Is(err, qerr.ErrCanceled) {
		t.Fatalf("err = %v, want qerr.ErrCanceled", err)
	}
	waitNoExtraGoroutines(t, baseline)

	// Released state: a full adaptive run on the same cluster still works.
	res, err := g.Execute(context.Background(), q1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 300 {
		t.Fatalf("follow-up rows = %d, want 300", len(res.Rows))
	}
	waitNoExtraGoroutines(t, baseline)
}

func TestLifecycleCancelMidReplay(t *testing.T) {
	// Q2's expensive operator is a stateful hash join: rebalancing it goes
	// through the R1 state-replay path. Cancelling shortly after the first
	// proposal lands inside (or racing with) that replay; either way the
	// query must come back ErrCanceled with nothing left running.
	cluster, g := lifecycleGrid(t, true, 150, 600)
	cluster.Node("ws1").SetPerturbation(vtime.Sleep(3))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelOnTopic(t, cluster, core.TopicDiagnosis, 300*time.Microsecond, cancel)
	baseline := len(queryGoroutines())

	_, err := g.Execute(ctx, q2)
	if !errors.Is(err, qerr.ErrCanceled) {
		t.Fatalf("err = %v, want qerr.ErrCanceled", err)
	}
	waitNoExtraGoroutines(t, baseline)

	// Released state: the same join, uncancelled, still yields correct rows.
	res, err := g.Execute(context.Background(), q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("follow-up join returned no rows")
	}
	waitNoExtraGoroutines(t, baseline)
}

func TestLifecycleSessionCloseIdempotent(t *testing.T) {
	for _, h := range lifecycleHosts {
		t.Run(h.name, func(t *testing.T) {
			d := h.build(t, 50, 30, time.Minute)
			pplan, err := d.plan(q1)
			if err != nil {
				t.Fatal(err)
			}
			s, err := newQuerySession(context.Background(), d.host, pplan, q1)
			if err != nil {
				t.Fatal(err)
			}
			// Close must be safe to call repeatedly and concurrently with the
			// per-resource Stops it performs itself.
			s.Close()
			s.Close()
			for _, rt := range s.runtimes {
				rt.Stop()
				rt.Stop()
			}
			for _, m := range s.meds {
				m.Stop()
			}
			s.diagnoser.Stop()
			s.responder.Stop()
			d.released(t, 0)

			// Close reclaimed every participant: the deployment is idle again.
			res, err := d.execute(context.Background(), q1)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 50 {
				t.Fatalf("rows after the closed session = %d, want 50", len(res.Rows))
			}
			d.released(t, 0)
		})
	}
}

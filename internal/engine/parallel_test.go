package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/logical"
	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/relation"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/vtime"
	"repro/internal/ws"
)

// TestParallelQ1MatchesSerial runs the Q1 pipeline once serially and once
// under a 3-worker morsel pool and requires identical result multisets: the
// worker pool must be a pure execution-strategy change.
func TestParallelQ1MatchesSerial(t *testing.T) {
	serial := newTestCluster(t, "data1", "ws0", "ws1", "coord")
	defer serial.stopAll()
	serial.deploy(q1Plan(120))
	want := multiset(serial.collect())

	par := newTestCluster(t, "data1", "ws0", "ws1", "coord")
	par.parallelism = 3
	defer par.stopAll()
	par.deploy(q1Plan(120))
	out := par.collect()
	if len(out) != 120 {
		t.Fatalf("parallel run produced %d rows, want 120", len(out))
	}
	got := multiset(out)
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("row %q: parallel %d, serial %d", k, got[k], n)
		}
	}
	// Routed counts stay exact under concurrent workers: every produced
	// tuple is accounted to exactly one consumer shard.
	var produced, routed int64
	for _, id := range []string{"F2#0", "F2#1"} {
		produced += par.runtimes[id].Produced()
		for _, n := range par.runtimes[id].Producer().ConsumerTupleCounts() {
			routed += n
		}
	}
	if produced != 120 || routed != 120 {
		t.Fatalf("produced=%d routed=%d, want 120/120", produced, routed)
	}
	// The worker gauge must balance out once the drivers finish.
	if v := obs.Default().Gauge(obs.MEngineParallelWorkers).Value(); v != 0 {
		t.Errorf("engine_parallel_workers gauge = %d after completion", v)
	}
	// Monitoring still flows in parallel mode.
	if m1, _ := par.monitor.counts(); m1 == 0 {
		t.Errorf("no M1 events in parallel mode")
	}
}

// BenchmarkFragmentParallel prices the morsel pool's width through the
// production driver: TestParallelQ1MatchesSerial's three-fragment Q1 cluster,
// every parallel-eligible fragment running FragmentRuntime.Run at the given
// width, over the in-memory demo tables (w1, w2, w4) and over the same tables
// stored on a posix backend (posix/w1, …), where the scan fragment decodes
// stored blocks. Reported, never gated: it asserts the row count only.
func BenchmarkFragmentParallel(b *testing.B) {
	posix, err := storage.NewPosix(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer posix.Close()
	stored, err := dataset.DemoStored(posix, 120, 200)
	if err != nil {
		b.Fatal(err)
	}
	for _, tables := range []struct {
		prefix string
		store  *dataset.Store // nil: the cluster's in-memory tables
	}{{"", nil}, {"posix/", stored}} {
		for _, width := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%sw%d", tables.prefix, width), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c := newTestCluster(b, "data1", "ws0", "ws1", "coord")
					if tables.store != nil {
						c.store = tables.store
					}
					c.parallelism = width
					c.deploy(q1Plan(120))
					n := len(c.collect())
					c.stopAll()
					if n != 120 {
						b.Fatalf("width %d produced %d rows, want 120", width, n)
					}
				}
			})
		}
	}
}

// TestParallelQ2JoinCorrectness runs Q2 at Parallelism 4: the scans run
// four morsel workers each, while each join instance, being stateful, runs
// at width 1 on its own table; the join result must match the serial
// reference exactly.
func TestParallelQ2JoinCorrectness(t *testing.T) {
	c := newTestCluster(t, "data1", "ws0", "ws1", "coord")
	c.parallelism = 4
	defer c.stopAll()
	c.deploy(q2Plan(120, 200))
	out := c.collect()
	want := expectedQ2(c.store)
	if len(out) != len(want) {
		t.Fatalf("parallel join produced %d rows, want %d", len(out), len(want))
	}
	got := multiset(out)
	for k, n := range multiset(want) {
		if got[k] != n {
			t.Fatalf("row %q: got %d, want %d", k, got[k], n)
		}
	}
}

// TestParallelStatefulEvictReplay drives the full R1 state-repartitioning
// protocol (pause, discard, evict, new map, replay, resend, resume) at
// Parallelism 2, where the scans run morsel pools and each join instance one
// driver: the evictions and replays, queued at the join instances' flow
// gates, must reach their tables without loss or duplication.
func TestParallelStatefulEvictReplay(t *testing.T) {
	c := newTestCluster(t, "data1", "ws0", "ws1", "coord")
	c.parallelism = 2
	defer c.stopAll()
	c.net.Node("ws1").SetPerturbation(vtime.Sleep(1000))
	c.deploy(q2Plan(120, 200))
	ctrl := newCtrlClient(t, c.tr, "coord")

	time.Sleep(30 * time.Millisecond)

	mirror, err := NewHashPolicy([]int{0}, 64, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	moved, err := mirror.SetWeights([]float64{0.9, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	newMap := mirror.OwnerMap()

	for _, f := range []string{"frag/F1#0", "frag/F2#0"} {
		ctrl.call("data1", f, &transport.Message{Kind: transport.KindControl,
			Ctrl: &transport.Ctrl{Op: transport.CtrlPause}})
	}
	type resend struct {
		service  string
		consumer int
		seqs     []int64
	}
	var resends []resend
	for i, node := range []simnet.NodeID{"ws0", "ws1"} {
		svc := fmt.Sprintf("frag/F3#%d", i)
		reply := ctrl.call(node, svc, &transport.Message{
			Kind: transport.KindControl,
			Ctrl: &transport.Ctrl{Op: transport.CtrlDiscard, Buckets: moved}})
		if seqs := reply.DiscardedSeqs[transport.StreamKey("E2", 0)]; len(seqs) > 0 {
			resends = append(resends, resend{service: "frag/F2#0", consumer: i, seqs: seqs})
		}
		ctrl.call(node, svc, &transport.Message{Kind: transport.KindControl,
			Ctrl: &transport.Ctrl{Op: transport.CtrlEvict, Buckets: moved}})
	}
	for _, f := range []string{"frag/F1#0", "frag/F2#0"} {
		ctrl.call("data1", f, &transport.Message{Kind: transport.KindControl,
			Ctrl: &transport.Ctrl{Op: transport.CtrlSetBucketMap, BucketMap: newMap}})
	}
	ctrl.call("data1", "frag/F1#0", &transport.Message{Kind: transport.KindControl,
		Ctrl: &transport.Ctrl{Op: transport.CtrlReplay, Buckets: moved}})
	for _, rs := range resends {
		ctrl.call("data1", rs.service, &transport.Message{
			Kind: transport.KindControl, ConsumerIdx: rs.consumer,
			Ctrl: &transport.Ctrl{Op: transport.CtrlResend, Seqs: rs.seqs}})
	}
	for _, f := range []string{"frag/F1#0", "frag/F2#0"} {
		ctrl.call("data1", f, &transport.Message{Kind: transport.KindControl,
			Ctrl: &transport.Ctrl{Op: transport.CtrlResume}})
	}

	out := c.collect()
	want := expectedQ2(c.store)
	if len(out) != len(want) {
		t.Fatalf("join produced %d rows after parallel repartitioning, want %d", len(out), len(want))
	}
	got := multiset(out)
	for k, n := range multiset(want) {
		if got[k] != n {
			t.Fatalf("row %q: got %d, want %d (repartitioning corrupted the parallel join)", k, got[k], n)
		}
	}
}

// TestProducerControlRacesConcurrentSenders races Pause/Resume/SetWeights
// against several workers pushing batches through SendBatch, each on its own
// meter, then checks the routed accounting stayed exact. Run under -race this
// exercises the flow barrier, the per-consumer shard counters and the policy
// swap.
func TestProducerControlRacesConcurrentSenders(t *testing.T) {
	pol, err := NewWeightedPolicy([]float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	h := newProducerHarness(t, 2, false, pol)

	const (
		senders   = 4
		batches   = 50
		batchSize = 8
	)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := vtime.NewMeter(h.ctx.Clock)
			ts := make([]relation.Tuple, batchSize)
			for b := 0; b < batches; b++ {
				for i := range ts {
					ts[i] = intTuple(s*batches*batchSize + b*batchSize + i)
				}
				if err := h.prod.SendBatch(ts, m); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
			}
		}()
	}

	ctrlDone := make(chan struct{})
	go func() {
		defer close(ctrlDone)
		weights := [][]float64{{0.9, 0.1}, {0.2, 0.8}, {0.5, 0.5}}
		for i := 0; i < 30; i++ {
			if err := h.prod.Pause(); err != nil {
				t.Errorf("pause: %v", err)
				return
			}
			if err := h.prod.SetWeights(weights[i%len(weights)]); err != nil {
				t.Errorf("setweights: %v", err)
				return
			}
			h.prod.Resume()
		}
	}()

	wg.Wait()
	<-ctrlDone
	if err := h.prod.Close(); err != nil {
		t.Fatal(err)
	}

	const total = senders * batches * batchSize
	routed, _ := h.prod.Progress()
	if routed != total {
		t.Fatalf("routed = %d, want %d", routed, total)
	}
	var perConsumer int64
	for _, n := range h.prod.ConsumerTupleCounts() {
		perConsumer += n
	}
	if perConsumer != total {
		t.Fatalf("per-consumer counts sum to %d, want %d", perConsumer, total)
	}
	// Every tuple was delivered exactly once across the two endpoints.
	seen := make(map[int64]int)
	for c := 0; c < 2; c++ {
		for _, m := range h.messages(c) {
			if m.Kind != transport.KindData {
				continue
			}
			for _, tp := range m.Tuples {
				seen[tp[0].AsInt()]++
			}
		}
	}
	if len(seen) != total {
		t.Fatalf("delivered %d distinct tuples, want %d", len(seen), total)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("tuple %d delivered %d times", v, n)
		}
	}
}

// TestFragmentWidth pins the plan's one width decision (width) at
// Parallelism 4: stateless chains run 4 worker chains, while a join, an
// aggregate, a sort, a result sink and an elastic (FT) instance each run
// one.
func TestFragmentWidth(t *testing.T) {
	q1 := q1Plan(120)
	consume := q1.Fragments[2].Root // the result sink's exchange leaf
	countCols := []relation.Column{{Name: "n", Type: relation.TInt}}
	agg := q1Plan(120)
	agg.Fragments[1].Root = &physical.OpSpec{Kind: physical.KAggregate,
		AggKinds: []uint8{uint8(logical.AggCount)}, AggArgs: []int{-1}, OutCols: countCols,
		Children: []*physical.OpSpec{agg.Fragments[1].Root.Children[0].Children[0]}}
	sorted := q1Plan(120)
	sorted.Fragments[2].Root = &physical.OpSpec{Kind: physical.KSort, SortOrds: []int{0}, SortDesc: []bool{false},
		OutCols: consume.OutCols, Children: []*physical.OpSpec{consume}}
	for _, tc := range []struct {
		name string
		plan *physical.Plan
		frag int
		ft   bool
		want int
	}{
		{"scan", q1, 0, false, 4},
		{"op-call", q1, 1, false, 4},
		{"join", q2Plan(120, 200), 2, false, 1},
		{"aggregate", agg, 1, false, 1},
		{"result-sink", q1, 2, false, 1},
		{"sort", sorted, 2, false, 1},
		{"ft", q1, 1, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, "data1", "ws0", "ws1", "coord")
			frag := tc.plan.Fragments[tc.frag]
			node := frag.Instances[0]
			cfg := RuntimeConfig{Plan: tc.plan, Fragment: frag, Tr: c.tr, Node: node, FT: tc.ft,
				Ctx: &ExecContext{Clock: c.clock, Node: c.net.Node(node), Meter: vtime.NewMeter(c.clock),
					Store: c.store, Buckets: 64, Parallelism: 4}}
			if frag.Output == nil {
				cfg.Sink = &chanSink{ch: c.results}
			}
			rt, err := NewFragmentRuntime(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Stop()
			if got := rt.width(); got != tc.want {
				t.Fatalf("fragment %s runs %d chains, want %d", frag.ID, got, tc.want)
			}
		})
	}
}

// flakyCall is a web service that echoes its argument, except for fail: that
// invocation waits until the other morsel has been invoked in full, so its
// worker is parked in the paused producer, then fails.
type flakyCall struct {
	fail   relation.Value
	others int64
	passed *atomic.Int64
}

func (flakyCall) Name() string              { return "Flaky" }
func (flakyCall) ArgTypes() []relation.Type { return []relation.Type{relation.TString} }
func (flakyCall) ResultType() relation.Type { return relation.TString }
func (flakyCall) BaseCostMs() float64       { return 0 }
func (f flakyCall) Invoke(args []relation.Value) (relation.Value, error) {
	if !args[0].Equal(f.fail) {
		f.passed.Add(1)
		return args[0], nil
	}
	for deadline := time.Now().Add(10 * time.Second); f.passed.Load() < f.others && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return relation.Null, errFailingCall
}

// errFailingCall is what flakyCall's failing invocation returns.
var errFailingCall = errors.New("service unavailable")

// TestParallelWorkerFailureInterruptsSiblings runs a width-2 scan → op-call
// fragment over two morsels behind a paused output exchange: one worker
// parks pushing its morsel, and the other fails on its morsel's first tuple.
// Run must return the failed worker's error — the failure interrupts the
// parked sibling, which nothing else would release — and leave no goroutine
// behind.
func TestParallelWorkerFailureInterruptsSiblings(t *testing.T) {
	before := runtime.NumGoroutine()
	seqCols := []relation.Column{
		{Table: "p", Name: "ORF", Type: relation.TString},
		{Table: "p", Name: "sequence", Type: relation.TString},
	}
	root := &physical.OpSpec{Kind: physical.KOpCall, Fn: "Flaky", ArgOrds: []int{0},
		OutCols:  append(append([]relation.Column{}, seqCols...), relation.Column{Name: "x", Type: relation.TString}),
		Children: []*physical.OpSpec{{Kind: physical.KScan, Table: "protein_sequences", OutCols: seqCols}}}
	clock := vtime.NewClock(time.Microsecond)
	net := simnet.NewNetwork(clock)
	net.AddNode("ws0")
	net.AddNode("coord")
	frag := &physical.FragmentSpec{ID: "F1", Root: root,
		Instances: []simnet.NodeID{"ws0"}, InitialWeights: []float64{1},
		Output: &physical.ExchangeSpec{ID: "E1", ConsumerFragment: "F2", Policy: physical.PolicyWeighted}}
	top := &physical.FragmentSpec{ID: "F2", Instances: []simnet.NodeID{"coord"}, InitialWeights: []float64{1},
		Root: &physical.OpSpec{Kind: physical.KConsume, Exchange: "E1", NumProducers: 1, OutCols: root.OutCols}}
	plan := &physical.Plan{Fragments: []*physical.FragmentSpec{frag, top}, Coordinator: "coord"}
	// Two morsels of one batch each: the scan hands each worker one.
	store := dataset.DemoSized(2*relation.DefaultBatchSize, 10)
	seqs, err := store.Table("protein_sequences")
	if err != nil {
		t.Fatal(err)
	}
	call := flakyCall{fail: seqs.Tuples[relation.DefaultBatchSize][0], others: relation.DefaultBatchSize, passed: new(atomic.Int64)}
	rt, err := NewFragmentRuntime(RuntimeConfig{
		Plan: plan, Fragment: frag, Tr: transport.NewInProc(net), Node: "ws0",
		Ctx: &ExecContext{Clock: clock, Node: net.Node("ws0"), Meter: vtime.NewMeter(clock),
			Store: store, Services: ws.NewRegistry(call), Buckets: 16, Parallelism: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Producer().Pause(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- rt.Run(context.Background()) }()
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung: the failed worker did not interrupt its parked sibling")
	}
	rt.Stop()
	if !errors.Is(err, errFailingCall) {
		t.Fatalf("Run = %v, want the failed worker's error", err)
	}
	if n := call.passed.Load(); n != relation.DefaultBatchSize {
		t.Fatalf("%d invocations passed, want the other morsel's %d", n, relation.DefaultBatchSize)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Run, %d before:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
	}
}

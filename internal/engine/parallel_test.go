package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/vtime"
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
// every parallel-eligible fragment running FragmentRuntime.Run → runParallel
// at the given width (w1 is the serial driver, as in production). Reported,
// never gated: it asserts the row count only.
func BenchmarkFragmentParallel(b *testing.B) {
	for _, width := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w%d", width), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := newTestCluster(b, "data1", "ws0", "ws1", "coord")
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

// TestParallelQ2JoinCorrectness checks the partitioned hash join: four
// workers build into the shared partitioned table behind the build barrier,
// then probe concurrently; the join result must match the single-threaded
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
// protocol (pause, discard, evict, new map, replay, resend, resume) against
// join fragments running 2-worker morsel pools: a mid-adaptation replay must
// land in the shared operator state without loss or duplication.
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
// against several workers pushing batches through SendBatchMeter, then
// checks the routed accounting stayed exact. Run under -race this exercises
// the flow barrier, the per-consumer shard counters and the policy swap.
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
				if err := h.prod.SendBatchMeter(ts, m); err != nil {
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

package engine

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/physical"
	"repro/internal/relation"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/vtime"
	"repro/internal/ws"
)

// chanSink collects the top fragment's rows.
type chanSink struct {
	ch chan relation.Tuple
}

func (s *chanSink) Send(t relation.Tuple) error {
	s.ch <- t
	return nil
}

func (s *chanSink) Close() error {
	close(s.ch)
	return nil
}

// countingSink tallies monitoring events.
type countingMonitor struct {
	mu sync.Mutex
	m1 []M1Event
	m2 []M2Event
}

func (m *countingMonitor) EmitM1(e M1Event) {
	m.mu.Lock()
	m.m1 = append(m.m1, e)
	m.mu.Unlock()
}

func (m *countingMonitor) EmitM2(e M2Event) {
	m.mu.Lock()
	m.m2 = append(m.m2, e)
	m.mu.Unlock()
}

func (m *countingMonitor) counts() (int, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m1), len(m.m2)
}

// testCluster wires fragment runtimes over an in-proc transport, playing
// the role the services layer plays in production.
type testCluster struct {
	t       testing.TB
	clock   *vtime.Clock
	net     *simnet.Network
	tr      *transport.InProc
	store   *dataset.Store
	monitor *countingMonitor
	costs   Costs
	// parallelism, when > 1, runs every parallel-eligible fragment under
	// the morsel worker pool.
	parallelism int
	// ft deploys every instance with elastic crash recovery (RuntimeConfig.FT).
	ft bool

	runtimes map[string]*FragmentRuntime
	results  chan relation.Tuple
	wg       sync.WaitGroup
	errMu    sync.Mutex
	errs     []error
}

func newTestCluster(t testing.TB, nodes ...simnet.NodeID) *testCluster {
	clock := vtime.NewClock(time.Microsecond)
	net := simnet.NewNetwork(clock)
	for _, n := range nodes {
		net.AddNode(n)
	}
	costs := Costs{ScanMs: 0.1, FilterMs: 0.01, ProjectMs: 0.01,
		JoinBuildMs: 0.05, JoinProbeMs: 0.2, StartupMs: 0}
	return &testCluster{
		t:        t,
		clock:    clock,
		net:      net,
		tr:       transport.NewInProc(net),
		store:    dataset.DemoSized(120, 200),
		monitor:  &countingMonitor{},
		costs:    costs,
		runtimes: make(map[string]*FragmentRuntime),
		results:  make(chan relation.Tuple, 100000),
	}
}

// deploy instantiates and starts every fragment instance of the plan.
func (c *testCluster) deploy(plan *physical.Plan) {
	c.t.Helper()
	// Create all runtimes before starting drivers so every endpoint is
	// registered before the first buffer flows.
	for _, frag := range plan.Fragments {
		for i, node := range frag.Instances {
			ctx := &ExecContext{
				Clock:        c.clock,
				Node:         c.net.Node(node),
				Meter:        vtime.NewMeter(c.clock),
				Store:        c.store,
				Services:     ws.NewRegistry(ws.Entropy{CostMs: 0.5}, ws.SequenceLength{}),
				Costs:        c.costs,
				Monitor:      c.monitor,
				MonitorEvery: 10,
				Buckets:      64,
				Parallelism:  c.parallelism,
			}
			cfg := RuntimeConfig{
				Plan:     plan,
				Fragment: frag,
				Instance: i,
				Ctx:      ctx,
				Tr:       c.tr,
				Node:     node,
				FT:       c.ft,
			}
			if frag.Output == nil {
				cfg.Sink = &chanSink{ch: c.results}
			}
			rt, err := NewFragmentRuntime(cfg)
			if err != nil {
				c.t.Fatalf("deploy %s#%d: %v", frag.ID, i, err)
			}
			c.runtimes[frag.InstanceID(i)] = rt
		}
	}
	for _, rt := range c.runtimes {
		rt := rt
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			if err := rt.Run(context.Background()); err != nil {
				c.errMu.Lock()
				c.errs = append(c.errs, err)
				c.errMu.Unlock()
			}
		}()
	}
}

// collect drains the result channel until the sink closes.
func (c *testCluster) collect() []relation.Tuple {
	c.t.Helper()
	var out []relation.Tuple
	timeout := time.After(30 * time.Second)
	for {
		select {
		case tp, ok := <-c.results:
			if !ok {
				c.wg.Wait()
				c.errMu.Lock()
				defer c.errMu.Unlock()
				for _, err := range c.errs {
					c.t.Fatalf("fragment error: %v", err)
				}
				return out
			}
			out = append(out, tp)
		case <-timeout:
			c.t.Fatalf("query did not complete; %d rows so far", len(out))
		}
	}
}

func (c *testCluster) stopAll() {
	for _, rt := range c.runtimes {
		rt.Stop()
	}
}

// q1Plan hand-builds the Q1 physical plan: scan on data1 feeding an
// EntropyAnalyser fragment partitioned across ws0/ws1, collected at coord.
func q1Plan(est int) *physical.Plan {
	scanCols := []relation.Column{
		{Table: "p", Name: "ORF", Type: relation.TString},
		{Table: "p", Name: "sequence", Type: relation.TString},
	}
	outCols := append(append([]relation.Column{}, scanCols...),
		relation.Column{Name: "H", Type: relation.TFloat})
	projCols := []relation.Column{outCols[2]}

	f1 := &physical.FragmentSpec{
		ID:        "F1",
		Root:      &physical.OpSpec{Kind: physical.KScan, Table: "protein_sequences", OutCols: scanCols},
		Instances: []simnet.NodeID{"data1"}, InitialWeights: []float64{1},
		Output: &physical.ExchangeSpec{ID: "E1", ConsumerFragment: "F2",
			Policy: physical.PolicyWeighted, EstTuples: est},
	}
	f2 := &physical.FragmentSpec{
		ID: "F2",
		Root: &physical.OpSpec{
			Kind: physical.KProject, Ords: []int{2}, OutCols: projCols,
			Children: []*physical.OpSpec{{
				Kind: physical.KOpCall, Fn: "EntropyAnalyser", ArgOrds: []int{1},
				ResultName: "H", OutCols: outCols,
				Children: []*physical.OpSpec{{
					Kind: physical.KConsume, Exchange: "E1", NumProducers: 1, OutCols: scanCols,
				}},
			}},
		},
		Instances:      []simnet.NodeID{"ws0", "ws1"},
		InitialWeights: []float64{0.5, 0.5},
		Partitioned:    true,
		EstInputTuples: est,
		Output: &physical.ExchangeSpec{ID: "E2", ConsumerFragment: "F3",
			Policy: physical.PolicyWeighted, EstTuples: est},
	}
	f3 := &physical.FragmentSpec{
		ID:        "F3",
		Root:      &physical.OpSpec{Kind: physical.KConsume, Exchange: "E2", NumProducers: 2, OutCols: projCols},
		Instances: []simnet.NodeID{"coord"}, InitialWeights: []float64{1},
	}
	return &physical.Plan{Fragments: []*physical.FragmentSpec{f1, f2, f3}, Coordinator: "coord"}
}

// q2Plan hand-builds the Q2 physical plan: hash join partitioned across
// ws0/ws1 with the sequences scan as stateful build side.
func q2Plan(seqEst, intEst int) *physical.Plan {
	seqCols := []relation.Column{
		{Table: "p", Name: "ORF", Type: relation.TString},
		{Table: "p", Name: "sequence", Type: relation.TString},
	}
	intCols := []relation.Column{
		{Table: "i", Name: "ORF1", Type: relation.TString},
		{Table: "i", Name: "ORF2", Type: relation.TString},
	}
	joinCols := append(append([]relation.Column{}, seqCols...), intCols...)
	projCols := []relation.Column{intCols[1]}

	f1 := &physical.FragmentSpec{
		ID:        "F1",
		Root:      &physical.OpSpec{Kind: physical.KScan, Table: "protein_sequences", OutCols: seqCols},
		Instances: []simnet.NodeID{"data1"}, InitialWeights: []float64{1},
		Output: &physical.ExchangeSpec{ID: "E1", ConsumerFragment: "F3",
			Policy: physical.PolicyHash, KeyOrds: []int{0}, Stateful: true, EstTuples: seqEst},
	}
	f2 := &physical.FragmentSpec{
		ID:        "F2",
		Root:      &physical.OpSpec{Kind: physical.KScan, Table: "protein_interactions", OutCols: intCols},
		Instances: []simnet.NodeID{"data1"}, InitialWeights: []float64{1},
		Output: &physical.ExchangeSpec{ID: "E2", ConsumerFragment: "F3",
			Policy: physical.PolicyHash, KeyOrds: []int{0}, EstTuples: intEst},
	}
	f3 := &physical.FragmentSpec{
		ID: "F3",
		Root: &physical.OpSpec{
			Kind: physical.KProject, Ords: []int{3}, OutCols: projCols,
			Children: []*physical.OpSpec{{
				Kind: physical.KJoin, BuildKeys: []int{0}, ProbeKeys: []int{0}, OutCols: joinCols,
				Children: []*physical.OpSpec{
					{Kind: physical.KConsume, Exchange: "E1", NumProducers: 1, OutCols: seqCols},
					{Kind: physical.KConsume, Exchange: "E2", NumProducers: 1, OutCols: intCols},
				},
			}},
		},
		Instances:      []simnet.NodeID{"ws0", "ws1"},
		InitialWeights: []float64{0.5, 0.5},
		Partitioned:    true,
		Stateful:       true,
		EstInputTuples: seqEst + intEst,
		Output: &physical.ExchangeSpec{ID: "E3", ConsumerFragment: "F4",
			Policy: physical.PolicyWeighted, EstTuples: intEst},
	}
	f4 := &physical.FragmentSpec{
		ID:        "F4",
		Root:      &physical.OpSpec{Kind: physical.KConsume, Exchange: "E3", NumProducers: 2, OutCols: projCols},
		Instances: []simnet.NodeID{"coord"}, InitialWeights: []float64{1},
	}
	return &physical.Plan{Fragments: []*physical.FragmentSpec{f1, f2, f3, f4}, Coordinator: "coord"}
}

func TestQ1PipelineEndToEnd(t *testing.T) {
	c := newTestCluster(t, "data1", "ws0", "ws1", "coord")
	defer c.stopAll()
	c.deploy(q1Plan(120))
	out := c.collect()
	if len(out) != 120 {
		t.Fatalf("got %d rows, want 120", len(out))
	}
	for _, tp := range out {
		if len(tp) != 1 || tp[0].Type() != relation.TFloat {
			t.Fatalf("bad row %v", tp.Format())
		}
	}
	// Work was split between both WS instances.
	for _, id := range []string{"F2#0", "F2#1"} {
		if n := c.runtimes[id].Produced(); n == 0 {
			t.Errorf("%s produced nothing", id)
		}
	}
	// Monitoring events flowed.
	m1, m2 := c.monitor.counts()
	if m1 == 0 || m2 == 0 {
		t.Errorf("monitoring events: m1=%d m2=%d", m1, m2)
	}
}

// TestQ1M1StreamAtWidth1 pins the paper's M1 cadence on the width-1 driver,
// with and without elastic recovery: every instance emits at exactly every
// tenth produced tuple, with exact selectivity, and each event attributes
// exactly its window's cost — the fragment's closed-form per-tuple charge.
func TestQ1M1StreamAtWidth1(t *testing.T) {
	for _, ft := range []bool{false, true} {
		t.Run(fmt.Sprintf("ft=%v", ft), func(t *testing.T) {
			c := newTestCluster(t, "data1", "ws0", "ws1", "coord")
			c.ft = ft
			defer c.stopAll()
			c.deploy(q1Plan(120))
			if n := len(c.collect()); n != 120 {
				t.Fatalf("got %d rows, want 120", n)
			}
			// Nodes are unperturbed, the demo tables are in memory and the
			// cluster's costs carry no per-byte scan term.
			perTuple := map[string]float64{
				"F1": c.costs.ScanMs,
				"F2": ws.Entropy{CostMs: 0.5}.BaseCostMs() + c.costs.ProjectMs,
				"F3": 0,
			}
			events := make(map[string][]M1Event)
			c.monitor.mu.Lock()
			for _, e := range c.monitor.m1 {
				id := fmt.Sprintf("%s#%d", e.Fragment, e.Instance)
				events[id] = append(events[id], e)
			}
			c.monitor.mu.Unlock()
			for id, rt := range c.runtimes {
				got := events[id]
				if want := int(rt.Produced() / 10); len(got) != want {
					t.Fatalf("%s: %d M1 events for %d produced tuples, want %d", id, len(got), rt.Produced(), want)
				}
				for i, e := range got {
					if e.Produced != int64(10*(i+1)) {
						t.Fatalf("%s: event %d at Produced=%d, want %d", id, i, e.Produced, 10*(i+1))
					}
					if e.Selectivity != 1 {
						t.Fatalf("%s: event %d selectivity %v, want 1", id, i, e.Selectivity)
					}
					if want := perTuple[e.Fragment]; math.Abs(e.CostPerTupleMs-want) > 1e-9 {
						t.Fatalf("%s: event %d cost %v ms/tuple, closed form %v", id, i, e.CostPerTupleMs, want)
					}
				}
			}
		})
	}
}

func TestQ1LogsDrainAfterCompletion(t *testing.T) {
	c := newTestCluster(t, "data1", "ws0", "ws1", "coord")
	defer c.stopAll()
	c.deploy(q1Plan(120))
	c.collect()
	// Stateless exchanges must have released their recovery logs through
	// acknowledgements (the EOS-completion signal requires it).
	for _, id := range []string{"F1#0", "F2#0", "F2#1"} {
		_, _, logSize := c.runtimes[id].Producer().Stats()
		if logSize != 0 {
			t.Errorf("%s: recovery log holds %d entries after completion", id, logSize)
		}
	}
}

func TestQ2JoinCorrectness(t *testing.T) {
	c := newTestCluster(t, "data1", "ws0", "ws1", "coord")
	defer c.stopAll()
	c.deploy(q2Plan(120, 200))
	out := c.collect()
	want := expectedQ2(c.store)
	if len(out) != len(want) {
		t.Fatalf("join produced %d rows, want %d", len(out), len(want))
	}
	gotSet := multiset(out)
	for k, n := range multiset(want) {
		if gotSet[k] != n {
			t.Fatalf("row %q: got %d, want %d", k, gotSet[k], n)
		}
	}
	// The build-side recovery log must still hold the full state (never
	// acknowledged) until Release.
	_, _, logSize := c.runtimes["F1#0"].Producer().Stats()
	if logSize != 120 {
		t.Errorf("stateful log holds %d entries, want 120", logSize)
	}
}

// expectedQ2 computes the reference join result single-threaded.
func expectedQ2(store *dataset.Store) []relation.Tuple {
	seqs, _ := store.Table("protein_sequences")
	ints, _ := store.Table("protein_interactions")
	orfs := make(map[string]int)
	for _, tp := range seqs.Tuples {
		orfs[tp[0].AsString()]++
	}
	var out []relation.Tuple
	for _, tp := range ints.Tuples {
		for i := 0; i < orfs[tp[0].AsString()]; i++ {
			out = append(out, relation.Tuple{tp[1]})
		}
	}
	return out
}

func multiset(ts []relation.Tuple) map[string]int {
	m := make(map[string]int, len(ts))
	for _, t := range ts {
		m[t.Key()]++
	}
	return m
}

// ctrlClient drives control operations the way the Responder does.
type ctrlClient struct {
	t     *testing.T
	tr    *transport.InProc
	node  simnet.NodeID
	mu    sync.Mutex
	next  uint64
	calls map[uint64]chan *transport.Ctrl
}

func newCtrlClient(t *testing.T, tr *transport.InProc, node simnet.NodeID) *ctrlClient {
	c := &ctrlClient{t: t, tr: tr, node: node, calls: make(map[uint64]chan *transport.Ctrl)}
	tr.Register(node, "ctrl-test", func(_ simnet.NodeID, msg *transport.Message) {
		c.mu.Lock()
		ch := c.calls[msg.Ctrl.RequestID]
		delete(c.calls, msg.Ctrl.RequestID)
		c.mu.Unlock()
		if ch != nil {
			ch <- msg.Ctrl
		}
	})
	return c
}

func (c *ctrlClient) call(to simnet.NodeID, service string, msg *transport.Message) *transport.Ctrl {
	c.t.Helper()
	c.mu.Lock()
	c.next++
	id := c.next
	ch := make(chan *transport.Ctrl, 1)
	c.calls[id] = ch
	c.mu.Unlock()
	msg.Ctrl.RequestID = id
	msg.Ctrl.ReplyTo = c.node
	msg.Ctrl.ReplyService = "ctrl-test"
	if _, err := c.tr.Send(c.node, to, service, msg); err != nil {
		c.t.Fatalf("control send: %v", err)
	}
	select {
	case reply := <-ch:
		if !reply.OK && reply.Err != "" {
			c.t.Fatalf("control %v failed: %s", msg.Ctrl.Op, reply.Err)
		}
		return reply
	case <-time.After(20 * time.Second):
		c.t.Fatalf("control %v timed out", msg.Ctrl.Op)
		return nil
	}
}

func TestStatelessRecallProtocol(t *testing.T) {
	// Reproduce, at the mechanism level, what the Responder does for an
	// R1 (retrospective) redistribution of a stateless subplan: pause the
	// producer, recall unprocessed tuples from consumers, install W', and
	// resend. The slow instance is perturbed so its queue backs up.
	c := newTestCluster(t, "data1", "ws0", "ws1", "coord")
	defer c.stopAll()
	// ~1ms of real time per call on the slow instance keeps its queue
	// backed up while the recall below executes.
	c.net.Node("ws1").SetPerturbation(vtime.Multiplier(2000))
	c.deploy(q1Plan(120))
	ctrl := newCtrlClient(t, c.tr, "coord")

	// Let the scan distribute everything (it is fast), then rebalance.
	time.Sleep(20 * time.Millisecond)
	ctrl.call("data1", "frag/F1#0", &transport.Message{Kind: transport.KindControl,
		Ctrl: &transport.Ctrl{Op: transport.CtrlPause}})
	var resendTotal int
	for i, node := range []simnet.NodeID{"ws0", "ws1"} {
		reply := ctrl.call(node, fmt.Sprintf("frag/F2#%d", i), &transport.Message{
			Kind: transport.KindControl, Exchange: "E1",
			Ctrl: &transport.Ctrl{Op: transport.CtrlDiscard}})
		for _, seqs := range reply.DiscardedSeqs {
			resendTotal += len(seqs)
		}
		if seqs := reply.DiscardedSeqs[transport.StreamKey("E1", 0)]; len(seqs) > 0 {
			ctrl.call("data1", "frag/F1#0", &transport.Message{
				Kind: transport.KindControl, ConsumerIdx: i,
				Ctrl: &transport.Ctrl{Op: transport.CtrlResend, Seqs: seqs}})
		}
	}
	ctrl.call("data1", "frag/F1#0", &transport.Message{Kind: transport.KindControl,
		Ctrl: &transport.Ctrl{Op: transport.CtrlSetWeights, Weights: []float64{0.95, 0.05}}})
	ctrl.call("data1", "frag/F1#0", &transport.Message{Kind: transport.KindControl,
		Ctrl: &transport.Ctrl{Op: transport.CtrlResume}})

	out := c.collect()
	if len(out) != 120 {
		t.Fatalf("got %d rows after recall, want 120 (no loss, no duplication)", len(out))
	}
}

func TestStatefulEvictReplayProtocol(t *testing.T) {
	// The R1 protocol for a stateful subplan: pause both feeds, discard
	// queued tuples of the moved buckets, evict build state, install the
	// new bucket map, replay build tuples, resend probes, resume.
	c := newTestCluster(t, "data1", "ws0", "ws1", "coord")
	defer c.stopAll()
	// The perturbed instance needs ~1ms of real time per probe so the join
	// is still mid-flight when the protocol below runs.
	c.net.Node("ws1").SetPerturbation(vtime.Sleep(1000))
	c.deploy(q2Plan(120, 200))
	ctrl := newCtrlClient(t, c.tr, "coord")

	time.Sleep(30 * time.Millisecond)

	// New weights 0.9/0.1: compute the canonical map the way the Responder
	// does, from a mirror policy with the same deterministic construction.
	mirror, err := NewHashPolicy([]int{0}, 64, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	moved, err := mirror.SetWeights([]float64{0.9, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	newMap := mirror.OwnerMap()

	// 1. Pause both producers feeding the join.
	for _, f := range []string{"frag/F1#0", "frag/F2#0"} {
		ctrl.call("data1", f, &transport.Message{Kind: transport.KindControl,
			Ctrl: &transport.Ctrl{Op: transport.CtrlPause}})
	}
	// 2. Discard queued tuples of moved buckets at both join instances,
	// for both exchanges, and evict the moved build state.
	type resend struct {
		service  string
		consumer int
		seqs     []int64
	}
	var resends []resend
	for i, node := range []simnet.NodeID{"ws0", "ws1"} {
		svc := fmt.Sprintf("frag/F3#%d", i)
		// One fragment-wide discard covers both input exchanges atomically;
		// build-side (E1) discards need no resend — the replay retransmits
		// every logged tuple of the moved buckets.
		reply := ctrl.call(node, svc, &transport.Message{
			Kind: transport.KindControl,
			Ctrl: &transport.Ctrl{Op: transport.CtrlDiscard, Buckets: moved}})
		if seqs := reply.DiscardedSeqs[transport.StreamKey("E2", 0)]; len(seqs) > 0 {
			resends = append(resends, resend{service: "frag/F2#0", consumer: i, seqs: seqs})
		}
		ctrl.call(node, svc, &transport.Message{Kind: transport.KindControl,
			Ctrl: &transport.Ctrl{Op: transport.CtrlEvict, Buckets: moved}})
	}
	// 3. Install the new map, replay state, resend probes, resume.
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
		t.Fatalf("join produced %d rows after repartitioning, want %d", len(out), len(want))
	}
	gotSet := multiset(out)
	for k, n := range multiset(want) {
		if gotSet[k] != n {
			t.Fatalf("row %q: got %d, want %d (state repartitioning corrupted the join)", k, gotSet[k], n)
		}
	}
}

func TestProducerProgress(t *testing.T) {
	c := newTestCluster(t, "data1", "ws0", "ws1", "coord")
	defer c.stopAll()
	c.deploy(q1Plan(120))
	c.collect()
	routed, est := c.runtimes["F1#0"].Producer().Progress()
	if routed != 120 || est != 120 {
		t.Fatalf("progress = %d/%d, want 120/120", routed, est)
	}
	counts := c.runtimes["F1#0"].Producer().ConsumerTupleCounts()
	if counts[0]+counts[1] != 120 {
		t.Fatalf("consumer counts = %v", counts)
	}
}

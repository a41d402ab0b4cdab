package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/engine"
	"repro/internal/physical"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/vtime"
)

// fakeInstance registers a fragment-instance endpoint that answers control
// requests with canned data and records what it was asked to do.
type fakeInstance struct {
	tr      *transport.InProc
	node    simnet.NodeID
	service string

	mu       sync.Mutex
	ops      []transport.CtrlOp
	routed   int64
	est      int64
	consumed int64
	discard  map[string][]int64
	// failPause makes the instance refuse CtrlPause.
	failPause bool
	// tx, when set, records every control request in arrival order.
	tx *transcript
	// onOp, when set, runs after a request is recorded and before the
	// reply is sent (fault injection mid-protocol).
	onOp func(transport.CtrlOp)
}

func newFakeInstance(tr *transport.InProc, node simnet.NodeID, service string) *fakeInstance {
	f := &fakeInstance{tr: tr, node: node, service: service, discard: map[string][]int64{}}
	tr.Register(node, service, f.handle)
	return f
}

func (f *fakeInstance) handle(from simnet.NodeID, msg *transport.Message) {
	if msg.Kind != transport.KindControl {
		return
	}
	f.mu.Lock()
	f.ops = append(f.ops, msg.Ctrl.Op)
	if f.tx != nil {
		f.tx.add(f, msg)
	}
	if f.onOp != nil {
		f.onOp(msg.Ctrl.Op)
	}
	reply := &transport.Ctrl{Op: msg.Ctrl.Op, RequestID: msg.Ctrl.RequestID, OK: true}
	switch msg.Ctrl.Op {
	case transport.CtrlProgress:
		// Producers report routed/est; consumers (addressed with their
		// input exchange) report consumed via Routed. A producer may have
		// routed tuples without an estimate (the fallback-path scenario).
		if f.est > 0 || f.routed > 0 {
			reply.Routed, reply.Est = f.routed, f.est
		} else {
			reply.Routed = f.consumed
		}
	case transport.CtrlDiscard:
		reply.DiscardedSeqs = f.discard
	case transport.CtrlPause:
		if f.failPause {
			reply.OK, reply.Err = false, "pause refused"
		}
	}
	f.mu.Unlock()
	out := &transport.Message{Kind: transport.KindReply, Ctrl: reply}
	_, _ = f.tr.Send(f.node, msg.Ctrl.ReplyTo, msg.Ctrl.ReplyService, out)
}

func (f *fakeInstance) sawOp(op transport.CtrlOp) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, o := range f.ops {
		if o == op {
			return true
		}
	}
	return false
}

// transcript records, in arrival order, every control request the fake
// instances sharing it receive.
type transcript struct {
	mu   sync.Mutex
	reqs []recordedCtrl
}

// recordedCtrl is one control request as its endpoint received it.
type recordedCtrl struct {
	node     simnet.NodeID
	service  string
	exchange string
	consumer int
	ctrl     transport.Ctrl
}

func (tx *transcript) add(f *fakeInstance, msg *transport.Message) {
	tx.mu.Lock()
	tx.reqs = append(tx.reqs, recordedCtrl{node: f.node, service: f.service,
		exchange: msg.Exchange, consumer: msg.ConsumerIdx, ctrl: *msg.Ctrl})
	tx.mu.Unlock()
}

// note inserts a marker line, so a multi-step scenario reads in phases.
func (tx *transcript) note(s string) {
	tx.mu.Lock()
	tx.reqs = append(tx.reqs, recordedCtrl{node: "--", service: s})
	tx.mu.Unlock()
}

// requests returns the recorded requests of one op, in arrival order.
func (tx *transcript) requests(op transport.CtrlOp) []recordedCtrl {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	var out []recordedCtrl
	for _, rq := range tx.reqs {
		if rq.node != "--" && rq.ctrl.Op == op {
			out = append(out, rq)
		}
	}
	return out
}

// String renders one request per line: endpoint, op, exchange, and every
// request field the redistribution protocol sets (peer always for the ops
// that address one, the consumer index always for resends).
func (tx *transcript) String() string {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	var sb strings.Builder
	for _, rq := range tx.reqs {
		if rq.node == "--" {
			fmt.Fprintf(&sb, "-- %s\n", rq.service)
			continue
		}
		c := rq.ctrl
		fmt.Fprintf(&sb, "%s %s %v ex=%s", rq.node, rq.service, c.Op, rq.exchange)
		if len(c.Buckets) > 0 {
			fmt.Fprintf(&sb, " buckets=%v", c.Buckets)
		}
		switch {
		case c.PeerNode != "":
			fmt.Fprintf(&sb, " peer=%s/%s", c.PeerNode, c.PeerService)
		case c.Peer != 0 || c.Op == transport.CtrlReplayLost || c.Op == transport.CtrlDetachConsumer || c.Op == transport.CtrlDetach:
			fmt.Fprintf(&sb, " peer=%d", c.Peer)
		}
		if len(c.Seqs) > 0 {
			fmt.Fprintf(&sb, " seqs=%v", c.Seqs)
		}
		if rq.consumer != 0 || c.Op == transport.CtrlResend {
			fmt.Fprintf(&sb, " consumer=%d", rq.consumer)
		}
		if len(c.Weights) > 0 {
			fmt.Fprintf(&sb, " w=%v", c.Weights)
		}
		if len(c.BucketMap) > 0 {
			fmt.Fprintf(&sb, " map=%v", c.BucketMap)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// responderRig is a responder on coord over an in-process network of data
// and WS nodes, plus the fake fragment instances its topologies address;
// every fake appends the control requests it receives to the rig's
// transcript.
type responderRig struct {
	r     *Responder
	b     *bus.Bus
	tr    *transport.InProc
	net   *simnet.Network
	tx    *transcript
	fakes map[string]*fakeInstance
}

func newResponderRig(t *testing.T, cfg ResponderConfig) *responderRig {
	t.Helper()
	clock := vtime.NewClock(time.Microsecond)
	net := simnet.NewNetwork(clock)
	for _, n := range []simnet.NodeID{"coord", "data1", "data2", "ws0", "ws1", "ws2"} {
		net.AddNode(n)
	}
	tr := transport.NewInProc(net)
	b := bus.New(clock, nil)
	t.Cleanup(b.Close)
	r := NewResponder(nil, b, tr, "coord", cfg)
	t.Cleanup(r.Stop)
	return &responderRig{r: r, b: b, tr: tr, net: net, tx: &transcript{}, fakes: map[string]*fakeInstance{}}
}

// fake returns the fake instance behind ref, creating it on first use.
func (g *responderRig) fake(ref InstanceRef) *fakeInstance {
	f := g.fakes[ref.Service]
	if f == nil {
		f = newFakeInstance(g.tr, ref.Node, ref.Service)
		f.tx = g.tx
		g.fakes[ref.Service] = f
	}
	return f
}

// register hands topo to the responder and creates a fake for every
// instance, input producer and downstream consumer it names. Producers
// report a cardinality estimate, so progress requests tell them apart.
func (g *responderRig) register(t *testing.T, topo FragmentTopology) {
	t.Helper()
	for _, ref := range topo.Instances {
		g.fake(ref)
	}
	for _, ex := range topo.Inputs {
		for _, ref := range ex.Producers {
			g.fake(ref).est = 1000
		}
	}
	for _, ref := range topo.Downstream {
		g.fake(ref)
	}
	if err := g.r.Register(topo); err != nil {
		t.Fatal(err)
	}
}

// refs addresses one fragment's instances, one per node, in index order.
func refs(fragment string, nodes ...simnet.NodeID) []InstanceRef {
	out := make([]InstanceRef, len(nodes))
	for i, n := range nodes {
		out[i] = InstanceRef{Index: i, Node: n, Service: fmt.Sprintf("frag/%s#%d", fragment, i)}
	}
	return out
}

// responderHarness assembles a responder over a fake producer and two fake
// consumers.
func responderHarness(t *testing.T, cfg ResponderConfig) (*Responder, *bus.Bus, *fakeInstance, [2]*fakeInstance) {
	t.Helper()
	g := newResponderRig(t, cfg)
	g.register(t, FragmentTopology{
		Fragment:  "F2",
		Weights:   []float64{0.5, 0.5},
		Instances: refs("F2", "ws0", "ws1"),
		Inputs:    []ExchangeTopology{{Exchange: "E1", Producers: refs("F1", "data1")}},
	})
	return g.r, g.b, g.fakes["frag/F1#0"], [2]*fakeInstance{g.fakes["frag/F2#0"], g.fakes["frag/F2#1"]}
}

func waitStats(t *testing.T, r *Responder, pred func(ResponderStats) bool) ResponderStats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := r.Stats()
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never satisfied predicate: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestResponderProspectiveSetsWeights(t *testing.T) {
	r, b, prod, _ := responderHarness(t, ResponderConfig{Response: R2, MaxProgress: 0.9})
	prod.mu.Lock()
	prod.routed = 100
	prod.mu.Unlock()
	b.Publish("diagnoser", "coord", TopicDiagnosis, Proposal{
		Fragment: "F2", Weights: []float64{0.9, 0.1}, Costs: []float64{10, 90},
	})
	waitStats(t, r, func(s ResponderStats) bool { return s.Adaptations == 1 })
	if !prod.sawOp(transport.CtrlSetWeights) {
		t.Fatal("producer never received the new weights")
	}
	if prod.sawOp(transport.CtrlPause) {
		t.Fatal("prospective response must not pause")
	}
}

func TestResponderProgressVeto(t *testing.T) {
	r, b, prod, cons := responderHarness(t, ResponderConfig{Response: R2, MaxProgress: 0.9})
	prod.mu.Lock()
	prod.routed = 1000
	prod.mu.Unlock()
	for _, c := range cons {
		c.mu.Lock()
		c.consumed = 480 // 960/1000 processed
		c.mu.Unlock()
	}
	b.Publish("diagnoser", "coord", TopicDiagnosis, Proposal{
		Fragment: "F2", Weights: []float64{0.9, 0.1},
	})
	st := waitStats(t, r, func(s ResponderStats) bool { return s.SkippedLate == 1 })
	if st.Adaptations != 0 {
		t.Fatalf("adaptation ran despite veto: %+v", st)
	}
	if prod.sawOp(transport.CtrlSetWeights) {
		t.Fatal("weights changed despite veto")
	}
}

func TestResponderRetrospectiveProtocolOrder(t *testing.T) {
	r, b, prod, cons := responderHarness(t, ResponderConfig{Response: R1, MaxProgress: 0.9})
	cons[1].mu.Lock()
	cons[1].discard = map[string][]int64{"E1/0": {7, 8, 9}}
	cons[1].mu.Unlock()
	b.Publish("diagnoser", "coord", TopicDiagnosis, Proposal{
		Fragment: "F2", Weights: []float64{0.9, 0.1},
	})
	st := waitStats(t, r, func(s ResponderStats) bool { return s.Adaptations == 1 })
	if st.TuplesMoved != 3 {
		t.Fatalf("tuples moved = %d, want 3", st.TuplesMoved)
	}
	for _, op := range []transport.CtrlOp{transport.CtrlPause, transport.CtrlSetWeights,
		transport.CtrlResend, transport.CtrlResume} {
		if !prod.sawOp(op) {
			t.Fatalf("producer never saw %v", op)
		}
	}
	prod.mu.Lock()
	ops := append([]transport.CtrlOp(nil), prod.ops...)
	prod.mu.Unlock()
	// Pause must precede SetWeights, which must precede Resend and Resume.
	idx := map[transport.CtrlOp]int{}
	for i, op := range ops {
		if _, seen := idx[op]; !seen {
			idx[op] = i
		}
	}
	if !(idx[transport.CtrlPause] < idx[transport.CtrlSetWeights] &&
		idx[transport.CtrlSetWeights] < idx[transport.CtrlResend] &&
		idx[transport.CtrlResend] < idx[transport.CtrlResume]) {
		t.Fatalf("protocol order violated: %v", ops)
	}
	if !cons[0].sawOp(transport.CtrlDiscard) || !cons[1].sawOp(transport.CtrlDiscard) {
		t.Fatal("consumers were not recalled")
	}
	// The Diagnoser hears about the deployed policy.
	// (PolicyUpdate is observed indirectly through the adaptation count;
	// the publish path is covered by the diagnoser tests.)
}

func TestResponderFailedPauseResumesProducers(t *testing.T) {
	// Two producers feed the fragment and the second refuses to pause: the
	// adaptation fails, and the first — already paused — must be resumed
	// rather than left blocking its driver until the query times out.
	r, b, prod, _ := responderHarness(t, ResponderConfig{Response: R1, MaxProgress: 0.9})
	bad := newFakeInstance(prod.tr, "data1", "frag/F1#1")
	bad.est, bad.failPause = 1000, true
	if err := r.Register(FragmentTopology{
		Fragment: "F3",
		Weights:  []float64{0.5, 0.5},
		Instances: []InstanceRef{
			{Index: 0, Node: "ws0", Service: "frag/F2#0"},
			{Index: 1, Node: "ws1", Service: "frag/F2#1"},
		},
		Inputs: []ExchangeTopology{{
			Exchange: "E1",
			Producers: []InstanceRef{
				{Index: 0, Node: "data1", Service: "frag/F1#0"},
				{Index: 1, Node: "data1", Service: "frag/F1#1"},
			},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	b.Publish("diagnoser", "coord", TopicDiagnosis, Proposal{
		Fragment: "F3", Weights: []float64{0.9, 0.1},
	})
	deadline := time.Now().Add(5 * time.Second)
	for failed := false; !failed; {
		for _, ev := range r.Timeline() {
			failed = failed || ev.Outcome == "failed"
		}
		if time.Now().After(deadline) {
			t.Fatal("adaptation with a refused pause never reported failure")
		}
		time.Sleep(time.Millisecond)
	}
	prod.mu.Lock()
	ops := append([]transport.CtrlOp(nil), prod.ops...)
	prod.mu.Unlock()
	paused := false
	for _, op := range ops {
		switch op {
		case transport.CtrlPause:
			paused = true
		case transport.CtrlResume:
			paused = false
		}
	}
	if paused {
		t.Fatalf("first producer left paused after the second refused: %v", ops)
	}
}

func TestResponderIgnoresUnknownFragment(t *testing.T) {
	r, b, _, _ := responderHarness(t, ResponderConfig{Response: R2, MaxProgress: 0.9})
	b.Publish("diagnoser", "coord", TopicDiagnosis, Proposal{
		Fragment: "NOPE", Weights: []float64{0.9, 0.1},
	})
	time.Sleep(20 * time.Millisecond)
	if st := r.Stats(); st.Adaptations != 0 || st.ProposalsIn != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTopologyOfEmptyPlan(t *testing.T) {
	if got := TopologyOf(&physical.Plan{}, 64); len(got) != 0 {
		t.Fatalf("empty plan topology = %v", got)
	}
}

func TestResponderProgressFallbackWithoutEstimate(t *testing.T) {
	// No cardinality estimate used to disable the MaxProgress veto
	// entirely (`est > 0 && ...` short-circuited false). The responder now
	// falls back to routing progress: processed over tuples routed so far.
	r, b, prod, cons := responderHarness(t, ResponderConfig{Response: R2, MaxProgress: 0.9})
	prod.mu.Lock()
	prod.est = 0
	prod.routed = 1000
	prod.mu.Unlock()
	for _, c := range cons {
		c.mu.Lock()
		c.consumed = 480 // 960/1000 routed: nearly drained
		c.mu.Unlock()
	}
	b.Publish("diagnoser", "coord", TopicDiagnosis, Proposal{
		Fragment: "F2", Weights: []float64{0.9, 0.1},
	})
	st := waitStats(t, r, func(s ResponderStats) bool { return s.SkippedLate == 1 })
	if st.Adaptations != 0 {
		t.Fatalf("adaptation ran without estimate at 96%% progress: %+v", st)
	}
	if st.ProgressFallbacks != 1 {
		t.Fatalf("fallback not counted: %+v", st)
	}
	if prod.sawOp(transport.CtrlSetWeights) {
		t.Fatal("weights changed despite fallback veto")
	}
}

func TestResponderProgressFallbackAllowsEarlyAdaptation(t *testing.T) {
	// The fallback must veto only near-complete executions; early ones
	// still adapt (and the fallback is still counted for observability).
	r, b, prod, cons := responderHarness(t, ResponderConfig{Response: R2, MaxProgress: 0.9})
	prod.mu.Lock()
	prod.est = 0
	prod.routed = 1000
	prod.mu.Unlock()
	for _, c := range cons {
		c.mu.Lock()
		c.consumed = 100 // 200/1000: early
		c.mu.Unlock()
	}
	b.Publish("diagnoser", "coord", TopicDiagnosis, Proposal{
		Fragment: "F2", Weights: []float64{0.9, 0.1},
	})
	st := waitStats(t, r, func(s ResponderStats) bool { return s.Adaptations == 1 })
	if st.ProgressFallbacks != 1 || st.SkippedLate != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if !prod.sawOp(transport.CtrlSetWeights) {
		t.Fatal("producer never received the new weights")
	}
}

func TestResponderStatsAndClockConcurrent(t *testing.T) {
	// Stats(), Timeline() and SetClock() are documented as callable from
	// other goroutines while proposals are being processed; run them against
	// a stream of adaptations so `go test -race` can check the claim.
	r, b, prod, _ := responderHarness(t, ResponderConfig{Response: R2, MaxProgress: 0.9, MinChange: 0.01})
	prod.mu.Lock()
	prod.routed = 100
	prod.mu.Unlock()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Stats()
				_ = r.Timeline()
			}
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.SetClock(vtime.NewClock(time.Microsecond))
			}
		}
	}()

	// Pace the publisher on the delivery counter: the bus's bounded
	// subscription ring would drop a burst faster than the adapt RPCs drain.
	for i := 0; i < 25; i++ {
		w := 0.3 + 0.4*float64(i%2) // alternate 0.3/0.7 so none is redundant
		b.Publish("diagnoser", "coord", TopicDiagnosis, Proposal{
			Fragment: "F2", Weights: []float64{w, 1 - w},
		})
		want := int64(i + 1)
		waitStats(t, r, func(s ResponderStats) bool { return s.ProposalsIn == want })
	}
	close(stop)
	readers.Wait()
	st := r.Stats()
	if st.Adaptations == 0 {
		t.Fatalf("no adaptations processed: %+v", st)
	}
}

// topologies of the protocol transcript scenarios.
func statelessTopo(weights []float64, nodes ...simnet.NodeID) FragmentTopology {
	return FragmentTopology{
		Fragment:  "F2",
		Weights:   weights,
		Instances: refs("F2", nodes...),
		Inputs:    []ExchangeTopology{{Exchange: "E1", Producers: refs("F1", "data1")}},
	}
}

// statefulTopo is a hash join: E1 feeds its build side (stateful), E2 its
// probe side.
func statefulTopo(weights []float64, nodes ...simnet.NodeID) FragmentTopology {
	return FragmentTopology{
		Fragment:  "F3",
		Stateful:  true,
		Weights:   weights,
		Buckets:   8,
		Instances: refs("F3", nodes...),
		Inputs: []ExchangeTopology{
			{Exchange: "E1", Stateful: true, Producers: refs("F1", "data1")},
			{Exchange: "E2", Producers: refs("F4", "data2")},
		},
	}
}

// propose publishes one proposal and returns the responder's decision on it.
func (g *responderRig) propose(t *testing.T, fragment string, w ...float64) AdaptationEvent {
	t.Helper()
	before := len(g.r.Timeline())
	g.b.Publish("diagnoser", "coord", TopicDiagnosis, Proposal{Fragment: fragment, Weights: w})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if tl := g.r.Timeline(); len(tl) > before {
			return tl[before]
		}
		if time.Now().After(deadline) {
			t.Fatalf("proposal %v for %s never decided", w, fragment)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestResponderProtocolTranscript pins, request by request, what every
// redistribution scenario sends to which endpoint and in what order.
func TestResponderProtocolTranscript(t *testing.T) {
	downstream := func(topo FragmentTopology, output string) FragmentTopology {
		topo.Output, topo.Downstream = output, refs("F5", "coord")
		return topo
	}
	for _, sc := range []struct {
		name string
		cfg  Response
		run  func(t *testing.T, g *responderRig)
		want string
	}{
		{
			name: "R2",
			cfg:  R2,
			run: func(t *testing.T, g *responderRig) {
				g.register(t, statelessTopo([]float64{0.5, 0.5}, "ws0", "ws1"))
				if ev := g.propose(t, "F2", 0.9, 0.1); ev.Outcome != "adapted" {
					t.Fatalf("outcome %q", ev.Outcome)
				}
			},
			want: `
data1 frag/F1#0 progress ex=E1
ws0 frag/F2#0 progress ex=E1
ws1 frag/F2#1 progress ex=E1
data1 frag/F1#0 set-weights ex=E1 w=[0.9 0.1]
`,
		},
		{
			name: "stateless R1 with a recall",
			cfg:  R1,
			run: func(t *testing.T, g *responderRig) {
				g.register(t, statelessTopo([]float64{0.5, 0.5}, "ws0", "ws1"))
				g.fakes["frag/F2#1"].discard = map[string][]int64{"E1/0": {7, 8, 9}}
				if ev := g.propose(t, "F2", 0.9, 0.1); ev.Outcome != "adapted" {
					t.Fatalf("outcome %q", ev.Outcome)
				}
			},
			want: `
data1 frag/F1#0 progress ex=E1
ws0 frag/F2#0 progress ex=E1
ws1 frag/F2#1 progress ex=E1
data1 frag/F1#0 pause ex=E1
ws0 frag/F2#0 discard ex=
ws1 frag/F2#1 discard ex=
data1 frag/F1#0 set-weights ex=E1 w=[0.9 0.1]
data1 frag/F1#0 resend ex=E1 seqs=[7 8 9] consumer=1
data1 frag/F1#0 resume ex=E1
`,
		},
		{
			name: "stateful R1 over a build and a probe exchange",
			cfg:  R2, // stateful fragments are always retrospective
			run: func(t *testing.T, g *responderRig) {
				g.register(t, statefulTopo([]float64{0.5, 0.5}, "ws0", "ws1"))
				g.fakes["frag/F3#0"].discard = map[string][]int64{"E1/0": {3}, "E2/0": {5, 6}}
				g.fakes["frag/F3#1"].discard = map[string][]int64{"E2/0": {9}}
				if ev := g.propose(t, "F3", 0.25, 0.75); ev.Outcome != "adapted" {
					t.Fatalf("outcome %q", ev.Outcome)
				}
			},
			want: `
data1 frag/F1#0 progress ex=E1
ws0 frag/F3#0 progress ex=E1
ws1 frag/F3#1 progress ex=E1
data2 frag/F4#0 progress ex=E2
ws0 frag/F3#0 progress ex=E2
ws1 frag/F3#1 progress ex=E2
data1 frag/F1#0 pause ex=E1
data2 frag/F4#0 pause ex=E2
ws0 frag/F3#0 discard ex= buckets=[3 2]
ws0 frag/F3#0 evict ex= buckets=[3 2]
ws1 frag/F3#1 discard ex= buckets=[3 2]
ws1 frag/F3#1 evict ex= buckets=[3 2]
data1 frag/F1#0 set-bucket-map ex=E1 map=[0 0 1 1 1 1 1 1]
data2 frag/F4#0 set-bucket-map ex=E2 map=[0 0 1 1 1 1 1 1]
data1 frag/F1#0 replay ex=E1 buckets=[3 2]
data2 frag/F4#0 resend ex=E2 seqs=[5 6] consumer=0
data2 frag/F4#0 resend ex=E2 seqs=[9] consumer=1
data1 frag/F1#0 resume ex=E1
data2 frag/F4#0 resume ex=E2
`,
		},
		{
			name: "stateless failover",
			cfg:  R2,
			run: func(t *testing.T, g *responderRig) {
				g.register(t, downstream(statelessTopo([]float64{0.25, 0.5, 0.25}, "ws0", "ws1", "ws2"), "E2"))
				if err := g.r.FailOverNode("ws1"); err != nil {
					t.Fatal(err)
				}
			},
			want: `
data1 frag/F1#0 pause ex=E1
data1 frag/F1#0 set-weights ex=E1 w=[0.5 0 0.5]
data1 frag/F1#0 replay-lost ex=E1 peer=1
coord frag/F5#0 detach ex=E2 peer=1
data1 frag/F1#0 resume ex=E1
`,
		},
		{
			name: "stateful failover",
			cfg:  R2,
			run: func(t *testing.T, g *responderRig) {
				g.register(t, downstream(statefulTopo([]float64{0.25, 0.5, 0.25}, "ws0", "ws1", "ws2"), "E3"))
				g.fakes["frag/F3#0"].discard = map[string][]int64{"E2/0": {4}}
				g.fakes["frag/F3#2"].discard = map[string][]int64{"E1/0": {2}}
				if err := g.r.FailOverNode("ws1"); err != nil {
					t.Fatal(err)
				}
			},
			want: `
data1 frag/F1#0 pause ex=E1
data2 frag/F4#0 pause ex=E2
ws0 frag/F3#0 discard ex= buckets=[5 4 3 2]
ws0 frag/F3#0 evict ex= buckets=[5 4 3 2]
ws2 frag/F3#2 discard ex= buckets=[5 4 3 2]
ws2 frag/F3#2 evict ex= buckets=[5 4 3 2]
data1 frag/F1#0 set-bucket-map ex=E1 map=[0 0 2 2 0 0 2 2]
data2 frag/F4#0 set-bucket-map ex=E2 map=[0 0 2 2 0 0 2 2]
data1 frag/F1#0 replay ex=E1 buckets=[5 4 3 2]
data1 frag/F1#0 detach-consumer ex=E1 peer=1
data2 frag/F4#0 replay-lost ex=E2 peer=1
data2 frag/F4#0 resend ex=E2 seqs=[4] consumer=0
coord frag/F5#0 detach ex=E3 peer=1
data1 frag/F1#0 resume ex=E1
data2 frag/F4#0 resume ex=E2
`,
		},
		{
			name: "failover retried after a second loss mid-protocol",
			cfg:  R2,
			run: func(t *testing.T, g *responderRig) {
				// F1 (two scan instances) feeds F2; data2, hosting F1#1, dies
				// while F2's failover of ws1 is draining the first producer.
				g.register(t, FragmentTopology{
					Fragment: "F1", Weights: []float64{0.5, 0.5},
					Instances: refs("F1", "data1", "data2"),
					Output:    "E1", Downstream: refs("F2", "ws0", "ws1", "ws2"),
				})
				topo := statelessTopo([]float64{0.25, 0.5, 0.25}, "ws0", "ws1", "ws2")
				topo.Inputs[0].Producers = refs("F1", "data1", "data2")
				g.register(t, topo)
				var once sync.Once
				g.fakes["frag/F1#0"].onOp = func(op transport.CtrlOp) {
					if op == transport.CtrlReplayLost {
						once.Do(g.net.Node("data2").Fail)
					}
				}
				err := g.r.FailOverNode("ws1")
				var down *transport.NodeDownError
				if !errors.As(err, &down) || down.Node != "data2" {
					t.Fatalf("first failover = %v, want a NodeDownError naming data2", err)
				}
				g.tx.note("FailOverNode(data2)")
				if err := g.r.FailOverNode("data2"); err != nil {
					t.Fatal(err)
				}
				g.tx.note("FailOverNode(ws1) retried")
				if err := g.r.FailOverNode("ws1"); err != nil {
					t.Fatal(err)
				}
			},
			want: `
data1 frag/F1#0 pause ex=E1
data2 frag/F1#1 pause ex=E1
data1 frag/F1#0 set-weights ex=E1 w=[0.5 0 0.5]
data2 frag/F1#1 set-weights ex=E1 w=[0.5 0 0.5]
data1 frag/F1#0 replay-lost ex=E1 peer=1
data1 frag/F1#0 resume ex=E1
-- FailOverNode(data2)
ws0 frag/F2#0 detach ex=E1 peer=1
ws2 frag/F2#2 detach ex=E1 peer=1
-- FailOverNode(ws1) retried
data1 frag/F1#0 pause ex=E1
data1 frag/F1#0 set-weights ex=E1 w=[0.5 0 0.5]
data1 frag/F1#0 replay-lost ex=E1 peer=1
data1 frag/F1#0 resume ex=E1
`,
		},
		{
			name: "AdmitInstance",
			cfg:  R2,
			run: func(t *testing.T, g *responderRig) {
				g.register(t, downstream(statelessTopo([]float64{0.5, 0.5}, "ws0", "ws1"), "E2"))
				inst := InstanceRef{Index: 2, Node: "ws2", Service: "frag/F2#2"}
				if err := g.r.AdmitInstance("F2", inst, []float64{0.5, 0.25, 0.25}); err != nil {
					t.Fatal(err)
				}
			},
			want: `
data1 frag/F1#0 pause ex=E1
coord frag/F5#0 expect-producer ex=E2 peer=ws2/frag/F2#2
data1 frag/F1#0 attach ex=E1 peer=ws2/frag/F2#2 w=[0.5 0.25 0.25]
data1 frag/F1#0 resume ex=E1
`,
		},
	} {
		t.Run(sc.name, func(t *testing.T) {
			g := newResponderRig(t, ResponderConfig{Response: sc.cfg, MaxProgress: 0.9})
			sc.run(t, g)
			if got, want := g.tx.String(), strings.TrimPrefix(sc.want, "\n"); got != want {
				t.Errorf("transcript:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// sameBuckets reports whether two bucket lists hold the same set.
func sameBuckets(a, b []int32) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

func TestResponderFailedStatefulAdaptationRestoresMirror(t *testing.T) {
	// The build producer refuses to pause, so the first adaptation fails
	// with every producer still on the initial bucket map. The second must
	// evict and replay the buckets that differ between that map and its own
	// — not relative to the failed attempt's map, which nobody installed:
	// buckets it moved that keep their owner now would otherwise reach an
	// owner without their build state.
	g := newResponderRig(t, ResponderConfig{Response: R1, MaxProgress: 0.9})
	g.register(t, statefulTopo([]float64{0.5, 0.5}, "ws0", "ws1"))
	build := g.fakes["frag/F1#0"]
	build.mu.Lock()
	build.failPause = true
	build.mu.Unlock()
	if ev := g.propose(t, "F3", 0.25, 0.75); ev.Outcome != "failed" {
		t.Fatalf("first adaptation: outcome %q, want failed", ev.Outcome)
	}
	build.mu.Lock()
	build.failPause = false
	build.mu.Unlock()
	if ev := g.propose(t, "F3", 0.75, 0.25); ev.Outcome != "adapted" {
		t.Fatalf("second adaptation: outcome %q, want adapted", ev.Outcome)
	}

	pol, err := engine.NewHashPolicy(nil, 8, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	initial := pol.OwnerMap()
	if _, err := pol.SetWeights([]float64{0.75, 0.25}); err != nil {
		t.Fatal(err)
	}
	final := pol.OwnerMap()
	var want []int32
	for b := range initial {
		if initial[b] != final[b] {
			want = append(want, int32(b))
		}
	}
	for _, op := range []transport.CtrlOp{transport.CtrlEvict, transport.CtrlReplay} {
		reqs := g.tx.requests(op)
		if len(reqs) == 0 {
			t.Fatalf("no %v sent", op)
		}
		for _, rq := range reqs {
			if !sameBuckets(rq.ctrl.Buckets, want) {
				t.Errorf("%v to %s moved buckets %v, want %v (initial map %v, final %v)",
					op, rq.service, rq.ctrl.Buckets, want, initial, final)
			}
		}
	}
	for _, rq := range g.tx.requests(transport.CtrlSetBucketMap) {
		if !slices.Equal(rq.ctrl.BucketMap, final) {
			t.Errorf("%s got map %v, want %v", rq.service, rq.ctrl.BucketMap, final)
		}
	}
}

func TestResponderStatefulFailoverRetryRecallsNothingUnmoved(t *testing.T) {
	// ws2 dies while the failover of ws1 is recalling, so the session
	// recovers ws2 first and then retries ws1. By then the fragment already
	// runs on ws0 alone and the retry moves no bucket. It must recall
	// nothing: a discard without buckets means "all", and would drop queued
	// build tuples that no replay restores.
	g := newResponderRig(t, ResponderConfig{Response: R2, MaxProgress: 0.9})
	g.register(t, statefulTopo([]float64{0.25, 0.5, 0.25}, "ws0", "ws1", "ws2"))
	var once sync.Once
	g.fakes["frag/F3#0"].onOp = func(op transport.CtrlOp) {
		if op == transport.CtrlEvict {
			once.Do(g.net.Node("ws2").Fail)
		}
	}
	err := g.r.FailOverNode("ws1")
	var down *transport.NodeDownError
	if !errors.As(err, &down) || down.Node != "ws2" {
		t.Fatalf("first failover = %v, want a NodeDownError naming ws2", err)
	}
	if err := g.r.FailOverNode("ws2"); err != nil {
		t.Fatal(err)
	}
	// The failed attempt restored the mirror, so recovering ws2 moved every
	// bucket ws0 did not own at the start: ws1's and ws2's.
	evicts := g.tx.requests(transport.CtrlEvict)
	if got := evicts[len(evicts)-1].ctrl.Buckets; !sameBuckets(got, []int32{2, 3, 4, 5, 6, 7}) {
		t.Fatalf("recovering ws2 evicted %v, want buckets 2-7", got)
	}
	discards, detaches := len(g.tx.requests(transport.CtrlDiscard)), len(g.tx.requests(transport.CtrlDetachConsumer))
	if err := g.r.FailOverNode("ws1"); err != nil {
		t.Fatal(err)
	}
	if n := len(g.tx.requests(transport.CtrlDiscard)); n != discards {
		t.Errorf("the retry sent %d discards for a failover that moved no bucket:\n%s", n-discards, g.tx)
	}
	if n := len(g.tx.requests(transport.CtrlEvict)); n != len(evicts) {
		t.Errorf("the retry sent %d evictions for a failover that moved no bucket:\n%s", n-len(evicts), g.tx)
	}
	if n := len(g.tx.requests(transport.CtrlDetachConsumer)); n == detaches {
		t.Errorf("the retry did not detach the dead build consumers:\n%s", g.tx)
	}
}

package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/bus"
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

// responderHarness assembles a responder over a fake producer and two fake
// consumers.
func responderHarness(t *testing.T, cfg ResponderConfig) (*Responder, *bus.Bus, *fakeInstance, [2]*fakeInstance) {
	t.Helper()
	clock := vtime.NewClock(time.Microsecond)
	net := simnet.NewNetwork(clock)
	for _, n := range []simnet.NodeID{"coord", "data1", "ws0", "ws1"} {
		net.AddNode(n)
	}
	tr := transport.NewInProc(net)
	b := bus.New(clock, nil)
	t.Cleanup(b.Close)
	r := NewResponder(nil, b, tr, "coord", cfg)
	t.Cleanup(r.Stop)

	prod := newFakeInstance(tr, "data1", "frag/F1#0")
	prod.est = 1000
	cons := [2]*fakeInstance{
		newFakeInstance(tr, "ws0", "frag/F2#0"),
		newFakeInstance(tr, "ws1", "frag/F2#1"),
	}
	topo := FragmentTopology{
		Fragment: "F2",
		Weights:  []float64{0.5, 0.5},
		Instances: []InstanceRef{
			{Index: 0, Node: "ws0", Service: "frag/F2#0"},
			{Index: 1, Node: "ws1", Service: "frag/F2#1"},
		},
		Inputs: []ExchangeTopology{{
			Exchange:  "E1",
			Producers: []InstanceRef{{Index: 0, Node: "data1", Service: "frag/F1#0"}},
		}},
	}
	if err := r.Register(topo); err != nil {
		t.Fatal(err)
	}
	return r, b, prod, cons
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

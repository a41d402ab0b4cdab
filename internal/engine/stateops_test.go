package engine

import (
	"context"
	"sync"
	"testing"

	"repro/internal/logical"
	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/relation"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// stateRig is one fragment instance, S#0 on node n, compiled by
// NewFragmentRuntime over consume leaves whose producers are never started:
// the test feeds it by hand through the instance's transport handler, so
// data, replays and EOS reach Consumer.Deliver and evictions the CtrlEvict
// handler exactly as the transport would deliver them, from any goroutine.
// Acknowledgements land in acks.
type stateRig struct {
	rt   *FragmentRuntime
	next map[string]int64 // last sequence sent per exchange

	mu   sync.Mutex
	acks []transport.Message
}

// newStateRig compiles root with one producer fragment per input exchange;
// the stateful one, if named, is the build-side (or aggregate) input.
func newStateRig(t testing.TB, ctx *ExecContext, root *physical.OpSpec, sink Sink, stateful string, inputs ...string) *stateRig {
	t.Helper()
	net := simnet.NewNetwork(ctx.Clock)
	net.AddNode("n")
	ctx.Node = net.Node("n")
	tr := transport.NewInProc(net)
	frag := &physical.FragmentSpec{ID: "S", Root: root, Instances: []simnet.NodeID{"n"}, InitialWeights: []float64{1}}
	plan := &physical.Plan{Fragments: []*physical.FragmentSpec{frag}}
	r := &stateRig{next: map[string]int64{}}
	for _, ex := range inputs {
		p := &physical.FragmentSpec{ID: "P" + ex, Instances: []simnet.NodeID{"n"}, InitialWeights: []float64{1},
			Output: &physical.ExchangeSpec{ID: ex, ConsumerFragment: "S", Policy: physical.PolicyHash,
				KeyOrds: []int{0}, Stateful: ex == stateful}}
		plan.Fragments = append(plan.Fragments, p)
		tr.Register("n", "frag/"+p.InstanceID(0), func(_ simnet.NodeID, m *transport.Message) {
			cp := *m // the consumer recycles its ack messages
			cp.Except = append([]int64(nil), m.Except...)
			r.mu.Lock()
			r.acks = append(r.acks, cp)
			r.mu.Unlock()
		})
	}
	rt, err := NewFragmentRuntime(RuntimeConfig{Plan: plan, Fragment: frag, Ctx: ctx, Tr: tr, Node: "n", Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	r.rt = rt
	return r
}

// data sends ts on ex as the next buffer of its one producer, closing a
// checkpoint interval at its last tuple when ck is set.
func (r *stateRig) data(ex string, ck bool, ts ...relation.Tuple) {
	m := &transport.Message{Kind: transport.KindData, Exchange: ex, StartSeq: r.next[ex] + 1, Tuples: ts}
	r.next[ex] += int64(len(ts))
	if ck {
		m.Checkpoint = r.next[ex]
	}
	r.rt.handle("n", m)
}

func (r *stateRig) eos(ex string) {
	r.rt.handle("n", &transport.Message{Kind: transport.KindEOS, Exchange: ex})
}

func (r *stateRig) replay(ex string, ts []relation.Tuple) {
	r.rt.handle("n", &transport.Message{Kind: transport.KindData, Exchange: ex, Replay: true, Tuples: ts})
}

func (r *stateRig) control(ex string, ctrl *transport.Ctrl) {
	r.rt.handle("n", &transport.Message{Kind: transport.KindControl, Exchange: ex, Ctrl: ctrl})
}

func (r *stateRig) evict(buckets ...int32) {
	r.control("", &transport.Ctrl{Op: transport.CtrlEvict, Buckets: buckets})
}

func (r *stateRig) ackMessages() []transport.Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]transport.Message(nil), r.acks...)
}

// joinSpec joins build exchange B with probe exchange P on column 0.
func joinSpec() *physical.OpSpec {
	return &physical.OpSpec{Kind: physical.KJoin, BuildKeys: []int{0}, ProbeKeys: []int{0},
		Children: []*physical.OpSpec{{Kind: physical.KConsume, Exchange: "B"}, {Kind: physical.KConsume, Exchange: "P"}}}
}

// countSpec counts the tuples of exchange A per column-0 group.
func countSpec() *physical.OpSpec {
	return &physical.OpSpec{Kind: physical.KAggregate, GroupOrds: []int{0},
		AggKinds: []uint8{uint8(logical.AggCount)}, AggArgs: []int{-1},
		Children: []*physical.OpSpec{{Kind: physical.KConsume, Exchange: "A"}}}
}

// rowsSink keeps the rows a top fragment emits.
type rowsSink struct{ rows []relation.Tuple }

func (s *rowsSink) Send(t relation.Tuple) error { s.rows = append(s.rows, t); return nil }
func (s *rowsSink) Close() error                { return nil }

// bucketsOf groups tuples by the routing bucket of column 0.
func bucketsOf(ts []relation.Tuple, buckets int) map[int32][]relation.Tuple {
	out := map[int32][]relation.Tuple{}
	for _, tp := range ts {
		b := int32(tp.Hash([]int{0}) % uint64(buckets))
		out[b] = append(out[b], tp)
	}
	return out
}

// TestStateOpsApplyInArrivalOrder builds a join without one bucket's
// tuples, then queues a replay of that bucket, its eviction and the replay
// again, and then probe tuples of the bucket: the driver applies the three
// in arrival order at its next pop, before the probe tuples, so the table
// holds the bucket once and every probe tuple matches exactly once. Any
// other order leaves the bucket empty or doubled when the probe arrives.
func TestStateOpsApplyInArrivalOrder(t *testing.T) {
	ctx := testCtx()
	rig := newStateRig(t, ctx, joinSpec(), &rowsSink{}, "B", "B", "P")
	build := buildTuples(40)
	var moved int32
	var ts []relation.Tuple
	for moved, ts = range bucketsOf(build, ctx.Buckets) {
		break
	}
	for b, bts := range bucketsOf(build, ctx.Buckets) {
		if b != moved {
			rig.data("B", false, bts...)
		}
	}
	rig.eos("B")
	j := rig.rt.root.(*HashJoin)
	if err := j.Open(ctx); err != nil {
		t.Fatal(err)
	}
	rig.replay("B", ts)
	rig.evict(moved)
	rig.replay("B", ts)
	if n := j.StateSize(); n != len(build)-len(ts) {
		t.Fatalf("StateSize = %d before the driver's pop, want %d: an operation ran off the driver", n, len(build)-len(ts))
	}
	rig.data("P", false, ts...)
	rig.eos("P")
	out := pullAll(t, j, 0)
	if len(out) != len(ts) {
		t.Fatalf("%d matches for %d probe tuples of the bucket, want one each", len(out), len(ts))
	}
	if n := j.StateSize(); n != len(build) {
		t.Fatalf("StateSize = %d, want %d", n, len(build))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rig.rt.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayBeforeOpenIsApplied delivers a replay to a join and to an
// aggregate before their fragment runs: each applies it once it opens, so
// the join matches the replayed build tuples and the aggregate counts the
// replayed input. Once the driver is done, a replay runs at once: the closed
// join ignores it and the closed aggregate counts it as dropped.
func TestReplayBeforeOpenIsApplied(t *testing.T) {
	build, probe := buildTuples(30), probeTuples(30, 30)
	t.Run("join", func(t *testing.T) {
		ctx := testCtx()
		sink := &rowsSink{}
		rig := newStateRig(t, ctx, joinSpec(), sink, "B", "B", "P")
		rig.replay("B", build[:10])
		rig.data("B", false, build[10:]...)
		rig.eos("B")
		rig.data("P", false, probe...)
		rig.eos("P")
		if err := rig.rt.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if len(sink.rows) != len(probe) {
			t.Fatalf("join emitted %d rows, want %d: the early replay was lost", len(sink.rows), len(probe))
		}
		rig.replay("B", build)
		if n := rig.rt.root.(*HashJoin).StateSize(); n != 0 {
			t.Fatalf("closed join holds %d tuples after a late replay", n)
		}
	})
	t.Run("aggregate", func(t *testing.T) {
		ctx := testCtx()
		sink := &rowsSink{}
		rig := newStateRig(t, ctx, countSpec(), sink, "A", "A")
		input := aggInput(100, 5)
		dropped := obs.Default().Counter(obs.MAggReplayDropped)
		d0 := dropped.Value()
		rig.replay("A", input[:40])
		rig.data("A", false, input[40:]...)
		rig.eos("A")
		if err := rig.rt.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, row := range sink.rows {
			total += row[1].AsInt()
		}
		if total != int64(len(input)) || dropped.Value() != d0 {
			t.Fatalf("aggregate counted %d tuples and dropped %d, want %d and 0", total, dropped.Value()-d0, len(input))
		}
		rig.replay("A", input[:7])
		if got := dropped.Value() - d0; got != 7 {
			t.Fatalf("a replay after the driver finished counted %d dropped, want 7", got)
		}
	})
}

// TestDiscardAcksCompletedCheckpoint recalls every queued tuple of a
// checkpoint interval from an instance whose driver has nothing in flight:
// the recall itself must acknowledge the completed checkpoint, listing the
// recalled sequences, or a driver parked in its pop never would and the
// producer's log would never drain to send EOS.
func TestDiscardAcksCompletedCheckpoint(t *testing.T) {
	ctx := testCtx()
	root := &physical.OpSpec{Kind: physical.KConsume, Exchange: "E"}
	rig := newStateRig(t, ctx, root, &rowsSink{}, "", "E")
	rig.data("E", true, intTuple(1), intTuple(2), intTuple(3))
	rig.control("E", &transport.Ctrl{Op: transport.CtrlDiscard})
	acks := rig.ackMessages()
	if len(acks) != 1 || acks[0].Checkpoint != 3 || len(acks[0].Except) != 3 {
		t.Fatalf("acks after the recall = %+v, want one for checkpoint 3 excepting 1..3", acks)
	}
	if err := rig.rt.Err(); err != nil {
		t.Fatal(err)
	}
}

package engine

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/relation"
	"repro/internal/simnet"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/vtime"
	"repro/internal/ws"
)

func TestServiceName(t *testing.T) {
	if got := ServiceName("F2", 1); got != "frag/F2#1" {
		t.Fatalf("ServiceName = %q", got)
	}
}

// runtimeFixture builds the plumbing for a single-fragment runtime.
func runtimeFixture(t *testing.T, root *physical.OpSpec, sink Sink) (*physical.Plan, RuntimeConfig) {
	t.Helper()
	clock := vtime.NewClock(time.Microsecond)
	net := simnet.NewNetwork(clock)
	net.AddNode("data1")
	frag := &physical.FragmentSpec{
		ID:             "F1",
		Root:           root,
		Instances:      []simnet.NodeID{"data1"},
		InitialWeights: []float64{1},
	}
	plan := &physical.Plan{Fragments: []*physical.FragmentSpec{frag}, Coordinator: "coord"}
	ctx := &ExecContext{
		Clock:    clock,
		Node:     net.Node("data1"),
		Meter:    vtime.NewMeter(clock),
		Store:    dataset.DemoSized(10, 10),
		Services: ws.NewRegistry(ws.Entropy{}),
		Costs:    Costs{},
		Buckets:  16,
	}
	return plan, RuntimeConfig{
		Plan: plan, Fragment: frag, Instance: 0, Ctx: ctx,
		Tr: transport.NewInProc(net), Node: "data1", Sink: sink,
	}
}

// nullSink discards rows.
type nullSink struct{ rows int }

func (s *nullSink) Send(relation.Tuple) error { s.rows++; return nil }
func (s *nullSink) Close() error              { return nil }

func TestRuntimeCompileErrors(t *testing.T) {
	cols := []relation.Column{{Name: "x", Type: relation.TInt}}
	cases := map[string]*physical.OpSpec{
		"bad kind": {Kind: physical.OpKind(99), OutCols: cols},
		"unknown exchange": {Kind: physical.KConsume, Exchange: "EZZZ",
			NumProducers: 1, OutCols: cols},
		"bad agg kind": {Kind: physical.KAggregate, OutCols: cols,
			AggKinds: []uint8{77}, AggArgs: []int{-1},
			Children: []*physical.OpSpec{{Kind: physical.KScan, Table: "protein_sequences", OutCols: cols}}},
		"bad filter pred": {Kind: physical.KFilter, OutCols: cols,
			Pred: []sqlparse.Comparison{{
				Left:  sqlparse.ColumnRef{Name: "nope"},
				Op:    sqlparse.OpEq,
				Right: sqlparse.IntLit{Value: 1},
			}},
			Children: []*physical.OpSpec{{Kind: physical.KScan, Table: "protein_sequences",
				OutCols: cols}}},
	}
	for name, spec := range cases {
		_, cfg := runtimeFixture(t, spec, &nullSink{})
		if _, err := NewFragmentRuntime(cfg); err == nil {
			t.Errorf("%s: compile succeeded", name)
		}
	}
}

func TestRuntimeRequiresSinkOrProducer(t *testing.T) {
	cols := []relation.Column{{Name: "ORF", Type: relation.TString}}
	spec := &physical.OpSpec{Kind: physical.KScan, Table: "protein_sequences", OutCols: cols}
	_, cfg := runtimeFixture(t, spec, nil)
	if _, err := NewFragmentRuntime(cfg); err == nil || !strings.Contains(err.Error(), "sink") {
		t.Fatalf("err = %v", err)
	}
}

func TestRuntimeRunScanToSink(t *testing.T) {
	cols := []relation.Column{
		{Table: "protein_sequences", Name: "ORF", Type: relation.TString},
		{Table: "protein_sequences", Name: "sequence", Type: relation.TString},
	}
	spec := &physical.OpSpec{Kind: physical.KScan, Table: "protein_sequences", OutCols: cols}
	sink := &nullSink{}
	_, cfg := runtimeFixture(t, spec, sink)
	rt, err := NewFragmentRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	if err := rt.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if sink.rows != 10 || rt.Produced() != 10 {
		t.Fatalf("rows = %d, produced = %d", sink.rows, rt.Produced())
	}
	if rt.Err() != nil {
		t.Fatalf("Err = %v", rt.Err())
	}
	if rt.QueuedTuples() != 0 || rt.ConsumedTuples() != 0 {
		t.Fatal("scan fragment has no consumers")
	}
}

// failSink rejects every row, forcing the driver down its mid-stream error
// return after stateful operators below the root have already buffered (and
// reserved) state.
type failSink struct{ err error }

func (s *failSink) Send(relation.Tuple) error { return s.err }
func (s *failSink) Close() error              { return nil }

// TestRuntimeErrorPathReleasesBudget pins the driver's close-on-error
// contract: a mid-stream failure (here the sink rejecting the first row)
// must still close the operator tree, or a budgeted aggregate's reserved
// bytes leak on mem_inflight_bytes for the rest of the process.
func TestRuntimeErrorPathReleasesBudget(t *testing.T) {
	scanCols := []relation.Column{
		{Table: "protein_sequences", Name: "ORF", Type: relation.TString},
	}
	outCols := []relation.Column{
		{Name: "ORF", Type: relation.TString},
		{Name: "n", Type: relation.TInt},
	}
	spec := &physical.OpSpec{
		Kind: physical.KAggregate, OutCols: outCols,
		GroupOrds: []int{0},
		AggKinds:  []uint8{uint8(logical.AggCount)},
		AggArgs:   []int{-1},
		Children: []*physical.OpSpec{{Kind: physical.KScan,
			Table: "protein_sequences", OutCols: scanCols}},
	}
	sinkErr := errors.New("sink rejected row")
	_, cfg := runtimeFixture(t, spec, &failSink{err: sinkErr})
	cfg.Ctx.Mem = storage.NewBudget(1 << 20) // large: buffer, never spill
	cfg.Ctx.Spill = storage.NewMemory()
	rt, err := NewFragmentRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	if err := rt.Run(context.Background()); !errors.Is(err, sinkErr) {
		t.Fatalf("Run = %v, want the sink error", err)
	}
	if n := cfg.Ctx.Mem.Inflight(); n != 0 {
		t.Fatalf("inflight = %d bytes after failed run, want 0 (operator tree not closed)", n)
	}
}

func TestRuntimeRunErrorPath(t *testing.T) {
	cols := []relation.Column{{Name: "x", Type: relation.TString}}
	spec := &physical.OpSpec{Kind: physical.KScan, Table: "missing_table", OutCols: cols}
	_, cfg := runtimeFixture(t, spec, &nullSink{})
	rt, err := NewFragmentRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	if err := rt.Run(context.Background()); err == nil {
		t.Fatal("Run over a missing table succeeded")
	}
	if rt.Err() == nil {
		t.Fatal("Err not recorded")
	}
}

// TestUnloggedControl: an operation that recalls, evicts or replays on an
// exchange the session keeps no recovery log for gets a failed reply naming
// ErrUnlogged, never a silent success; on a logged exchange it is carried
// out. Discard and evict act on the instance's input A, replay, resend and
// replay-lost on its output O, so an instance whose output alone is
// unlogged still recalls its logged input. FT logs every exchange. Data for
// an exchange the instance does not consume is refused and its buffer
// released.
func TestUnloggedControl(t *testing.T) {
	input := map[transport.CtrlOp]bool{transport.CtrlDiscard: true, transport.CtrlEvict: true,
		transport.CtrlReplay: false, transport.CtrlResend: false, transport.CtrlReplayLost: false}
	ops := []transport.CtrlOp{transport.CtrlDiscard, transport.CtrlEvict, transport.CtrlReplay,
		transport.CtrlResend, transport.CtrlReplayLost}
	for _, tc := range []struct {
		unlogged []string
		ft       bool
	}{{}, {unlogged: []string{"A", "O"}}, {unlogged: []string{"O"}}, {unlogged: []string{"A", "O"}, ft: true}} {
		net, ctx := newExchangeContext()
		tr := transport.NewInProc(net)
		one := func(id string, out *physical.ExchangeSpec) *physical.FragmentSpec {
			return &physical.FragmentSpec{ID: id, Instances: []simnet.NodeID{"n"}, InitialWeights: []float64{1}, Output: out}
		}
		frag := one("S", &physical.ExchangeSpec{ID: "O", ConsumerFragment: "T", Policy: physical.PolicyHash, KeyOrds: []int{0}})
		frag.Root = countSpec()
		plan := &physical.Plan{Fragments: []*physical.FragmentSpec{
			one("PA", &physical.ExchangeSpec{ID: "A", ConsumerFragment: "S", Policy: physical.PolicyHash, KeyOrds: []int{0}, Stateful: true}),
			frag, one("T", nil)}}
		var replies []*transport.Ctrl
		tr.Register("n", "reply", func(_ simnet.NodeID, m *transport.Message) { replies = append(replies, m.Ctrl) })
		cfg := RuntimeConfig{Plan: plan, Fragment: frag, Ctx: ctx, Tr: tr, Node: "n", FT: tc.ft}
		if tc.unlogged != nil {
			cfg.Unlogged = func(ex string) bool { return slices.Contains(tc.unlogged, ex) }
		}
		rt, err := NewFragmentRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range ops {
			rt.handleControl(&transport.Message{Kind: transport.KindControl, Exchange: "A", Ctrl: &transport.Ctrl{
				Op: op, RequestID: uint64(i), ReplyTo: "n", ReplyService: "reply", Buckets: []int32{1}}})
			ex := "O"
			if input[op] {
				ex = "A"
			}
			refuse := !tc.ft && slices.Contains(tc.unlogged, ex)
			r := replies[len(replies)-1]
			if ok := r.OK != refuse && (r.OK || strings.Contains(r.Err, ErrUnlogged.Error())); !ok {
				t.Errorf("unlogged %v ft %t: %v replied OK=%t %q", tc.unlogged, tc.ft, op, r.OK, r.Err)
			}
		}
		var released atomic.Int64
		b := sendBufPoolFor(1).get()
		b.tuples = append(b.tuples, relation.Tuple{relation.Int(1)})
		rt.handle("n", &transport.Message{Kind: transport.KindData, Exchange: "X", Tuples: b.tuples, Slots: countedSlots{b, &released}})
		if rt.Err() == nil || released.Load() != 1 {
			t.Errorf("data for an unknown exchange: err %v, %d releases", rt.Err(), released.Load())
		}
		rt.Stop()
	}
}

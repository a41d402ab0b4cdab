package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/bus"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/plancache"
	"repro/internal/registry"
	"repro/internal/relation"
	"repro/internal/simnet"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/vtime"
)

// Layer replays: the bench calls each layer's public functions from outside,
// on the workload's own inputs, and records the call as a span. Tracing
// inside the program is a later change and will replace them.

// timed runs fn and records it as a span; units is the work fn covered.
func timed(rec *recorder, id int64, name, parent string, fn func() (units int64, err error)) error {
	t0 := time.Now()
	units, err := fn()
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	rec.add(id, name, parent, t0, t1, units)
	return nil
}

// planTemplate is what the shadow plan cache holds: the scheduled plan of a
// normalized statement and its parameter slots.
type planTemplate struct {
	plan  *physical.Plan
	slots []sqlparse.Slot
}

// frontend replays the coordinator's serving front-end as GDQS.planFor runs
// it: normalize, plan-cache lookup, on a miss plan + schedule + validate,
// then clone + bind + tag.
type frontend struct {
	cat   *catalog.Catalog
	reg   *registry.Registry
	coord simnet.NodeID
	// cache shadows the coordinator's plan cache: same capacity, fed the
	// same statements, so it hits and misses where the real one does. nil
	// replays the remote coordinator's path, which plans every statement
	// and binds nothing.
	cache *plancache.Cache[*planTemplate]
}

func (f *frontend) trace(rec *recorder, id int64, sql string) error {
	var (
		key      string
		template *sqlparse.SelectStmt
		slots    []sqlparse.Slot
		tp       *planTemplate
		hit      bool
	)
	if err := timed(rec, id, "sqlparse.normalize", rootSpan, func() (int64, error) {
		var err error
		key, template, slots, err = sqlparse.NormalizeSQL(sql)
		return 0, err
	}); err != nil {
		return err
	}
	if f.cache != nil {
		_ = timed(rec, id, "plancache.get", rootSpan, func() (int64, error) {
			tp, hit = f.cache.Get(key, 0)
			return 0, nil
		})
	}
	if !hit {
		var lplan logical.Node
		if err := timed(rec, id, "logical.plan", rootSpan, func() (int64, error) {
			var err error
			lplan, _, err = logical.PlanParams(template, f.cat)
			return 0, err
		}); err != nil {
			return err
		}
		if err := timed(rec, id, "physical.schedule", rootSpan, func() (int64, error) {
			pplan, err := physical.Schedule(lplan, f.reg, physical.Options{Coordinator: f.coord})
			if err != nil {
				return 0, err
			}
			tp = &planTemplate{plan: pplan, slots: slots}
			return 0, pplan.Validate()
		}); err != nil {
			return err
		}
		if f.cache != nil {
			f.cache.Put(key, 0, tp)
		}
	}
	if f.cache == nil {
		return nil
	}
	return timed(rec, id, "physical.bind", rootSpan, func() (int64, error) {
		args, err := sqlparse.BindSlots(slots, nil)
		if err != nil {
			return 0, err
		}
		p := tp.plan.Clone()
		if err := p.BindParams(args); err != nil {
			return 0, err
		}
		p.Tag(fmt.Sprintf("b%d", id))
		return 0, nil
	})
}

// replayCtx is an execution context for operators driven by the bench: the
// real-cost model, no monitoring, and the given budget and spill backend.
func replayCtx(store *dataset.Store, mem *storage.Budget, spill storage.Backend) *engine.ExecContext {
	clock := vtime.NewClock(time.Nanosecond)
	return &engine.ExecContext{
		Clock:   clock,
		Node:    simnet.NewNode("bench"),
		Meter:   vtime.NewMeter(clock),
		Store:   store,
		Costs:   realCosts(),
		Buckets: engine.DefaultBuckets,
		Mem:     mem,
		Spill:   spill,
	}
}

// drain opens it, pulls every batch and closes it, returning the tuples when
// keep is set and their count either way.
func drain(it engine.Iterator, ctx *engine.ExecContext, keep bool) ([]relation.Tuple, int64, error) {
	if err := it.Open(ctx); err != nil {
		_ = it.Close()
		return nil, 0, err
	}
	batch := relation.GetBatch()
	defer batch.Release()
	var (
		out []relation.Tuple
		n   int64
	)
	for {
		k, err := engine.FillBatch(it, batch)
		if err != nil {
			_ = it.Close()
			return nil, 0, err
		}
		if k == 0 {
			break
		}
		n += int64(k)
		if keep {
			out = append(out, batch.Tuples...)
		}
	}
	return out, n, it.Close()
}

// engineLayers replays the operator stages of the analytic statement on the
// workload's tables.
type engineLayers struct {
	// store holds the tables the production query scans (stored or
	// in-memory); seqs and ints are the same rows as in-memory tables.
	store      *dataset.Store
	seqs, ints *dataset.Table
	// budget and spill, when set, put join, aggregate and sort under the
	// workload's memory budget.
	budget int64
	spill  storage.Backend
	// tcp adds the wire codec and a loopback TCP hop under the exchange.
	tcp *tcpPair
}

func (l *engineLayers) opCtx() *engine.ExecContext {
	if l.budget > 0 {
		return replayCtx(l.store, storage.NewBudget(l.budget), l.spill)
	}
	return replayCtx(l.store, nil, nil)
}

func (l *engineLayers) trace(rec *recorder, id int64) error {
	input := int64(len(l.seqs.Tuples) + len(l.ints.Tuples))
	if err := l.traceScan(rec, id); err != nil {
		return err
	}
	join := func() *engine.HashJoin {
		return &engine.HashJoin{
			Build:     engine.NewSliceSource(l.seqs.Tuples, 0),
			Probe:     engine.NewSliceSource(l.ints.Tuples, 0),
			BuildKeys: []int{0}, ProbeKeys: []int{0},
			BuildEst: len(l.seqs.Tuples),
		}
	}
	var joined []relation.Tuple
	// The unbudgeted join is always measured; under a budget it is detached
	// from the root, whose join is the spilling one.
	parent := rootSpan
	if l.budget > 0 {
		parent = ""
	}
	if err := timed(rec, id, "engine.join", parent, func() (int64, error) {
		var err error
		joined, _, err = drain(join(), replayCtx(nil, nil, nil), true)
		return input, err
	}); err != nil {
		return err
	}
	if l.budget > 0 {
		if err := timed(rec, id, "engine.join_spill", rootSpan, func() (int64, error) {
			_, _, err := drain(join(), l.opCtx(), false)
			return input, err
		}); err != nil {
			return err
		}
	}
	var grouped []relation.Tuple
	if err := timed(rec, id, "engine.agg", rootSpan, func() (int64, error) {
		agg := &engine.HashAggregate{
			Child:     engine.NewSliceSource(joined, 0),
			GroupOrds: []int{0},
			Kinds:     []logical.AggKind{logical.AggCount},
			ArgOrds:   []int{-1},
		}
		var err error
		grouped, _, err = drain(agg, l.opCtx(), true)
		return int64(len(joined)), err
	}); err != nil {
		return err
	}
	if err := timed(rec, id, "engine.sort", rootSpan, func() (int64, error) {
		s := &engine.Sort{Child: engine.NewSliceSource(grouped, 0), Ords: []int{0}, Desc: []bool{false}}
		_, _, err := drain(s, l.opCtx(), false)
		return int64(len(grouped)), err
	}); err != nil {
		return err
	}
	if err := timed(rec, id, "engine.exchange", rootSpan, func() (int64, error) {
		// The query's two input exchanges: the join's build side (stateful:
		// its recovery log is never released) and its probe side.
		if err := replayExchange(l.seqs, true); err != nil {
			return 0, err
		}
		return input, replayExchange(l.ints, false)
	}); err != nil {
		return err
	}
	if l.tcp != nil {
		return l.tcp.trace(rec, id, l.seqs.Tuples, l.ints.Tuples)
	}
	return nil
}

// traceScan replays the stored-table read path: raw block reads, block
// decode, and the TableScan that does both behind a readahead goroutine.
func (l *engineLayers) traceScan(rec *recorder, id int64) error {
	var blocks [][]byte
	stored := false
	if err := timed(rec, id, "storage.block_read", "engine.scan", func() (int64, error) {
		var bytes int64
		for _, name := range l.store.Names() {
			tbl, err := l.store.Table(name)
			if err != nil {
				return 0, err
			}
			br, ok, err := tbl.OpenBlocks()
			if err != nil {
				return 0, err
			}
			if !ok {
				continue
			}
			stored = true
			for i := 0; i < br.Blocks(); i++ {
				data, err := br.ReadBlock(i, nil)
				if err != nil {
					_ = br.Close()
					return 0, err
				}
				blocks = append(blocks, data)
				bytes += int64(len(data))
			}
			if err := br.Close(); err != nil {
				return 0, err
			}
		}
		return bytes, nil
	}); err != nil {
		return err
	}
	if stored {
		if err := timed(rec, id, "relation.decode", "engine.scan", func() (int64, error) {
			var (
				arena  relation.Arena
				tuples int64
			)
			batch := relation.NewBatch(0)
			for _, data := range blocks {
				left, rest, err := relation.TupleCount(data)
				if err != nil {
					return 0, err
				}
				tuples += int64(left)
				base := unsafe.String(unsafe.SliceData(data), len(data))
				for left > 0 {
					batch.Rewind()
					rest, left, _, err = relation.DecodeTuplesShared(&arena, base, rest, left, batch, nil)
					if err != nil {
						return 0, err
					}
				}
			}
			return tuples, nil
		}); err != nil {
			return err
		}
	}
	return timed(rec, id, "engine.scan", rootSpan, func() (int64, error) {
		var tuples int64
		for _, name := range l.store.Names() {
			_, n, err := drain(&engine.TableScan{Table: name}, replayCtx(l.store, nil, nil), false)
			if err != nil {
				return 0, err
			}
			tuples += n
		}
		return tuples, nil
	})
}

// countSink is the result sink of an exchange replay's consumers.
type countSink struct{ n atomic.Int64 }

func (s *countSink) Send(relation.Tuple) error { s.n.Add(1); return nil }
func (s *countSink) Close() error              { return nil }

// replayExchange routes every tuple of tbl through one hash exchange: a scan
// fragment's Producer.SendBatch over transport.InProc into the
// Consumer.NextBatch of two consuming fragment instances, with the default
// buffer size, checkpoints and acknowledgements — the engine's own
// FragmentRuntime on a two-fragment plan.
func replayExchange(tbl *dataset.Table, stateful bool) error {
	cols := tbl.Schema.Columns()
	prod := &physical.FragmentSpec{
		ID:        "X1",
		Root:      &physical.OpSpec{Kind: physical.KScan, Table: tbl.Name, OutCols: cols},
		Instances: []simnet.NodeID{"src"},
		Output: &physical.ExchangeSpec{ID: "XE", ConsumerFragment: "X2", Policy: physical.PolicyHash,
			KeyOrds: []int{0}, Stateful: stateful, EstTuples: len(tbl.Tuples)},
	}
	cons := &physical.FragmentSpec{
		ID:             "X2",
		Root:           &physical.OpSpec{Kind: physical.KConsume, Exchange: "XE", NumProducers: 1, OutCols: cols},
		Instances:      []simnet.NodeID{"c0", "c1"},
		InitialWeights: []float64{0.5, 0.5},
		Partitioned:    true,
		Stateful:       stateful,
		EstInputTuples: len(tbl.Tuples),
	}
	plan := &physical.Plan{Fragments: []*physical.FragmentSpec{prod, cons}, Coordinator: "c0"}

	clock := vtime.NewClock(time.Nanosecond)
	net := simnet.NewNetwork(clock)
	net.SetDefaultLink(simnet.Loopback)
	for _, n := range []simnet.NodeID{"src", "c0", "c1"} {
		net.AddNode(n)
	}
	tr := transport.NewInProc(net)
	store := dataset.NewStore()
	store.Add(tbl)

	var (
		sink     countSink
		runtimes []*engine.FragmentRuntime
	)
	defer func() {
		for _, rt := range runtimes {
			rt.Stop()
		}
	}()
	for _, frag := range plan.Fragments {
		for i, node := range frag.Instances {
			cfg := engine.RuntimeConfig{
				Plan: plan, Fragment: frag, Instance: i, Tr: tr, Node: node,
				Ctx: &engine.ExecContext{
					Clock: clock, Node: net.Node(node), Meter: vtime.NewMeter(clock), Store: store,
					Costs: realCosts(), Buckets: engine.DefaultBuckets, Fragment: frag.ID, Instance: i,
				},
			}
			if frag.Output == nil {
				cfg.Sink = &sink
			}
			rt, err := engine.NewFragmentRuntime(cfg)
			if err != nil {
				return err
			}
			runtimes = append(runtimes, rt)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), opCap)
	defer cancel()
	errs := make(chan error, len(runtimes))
	for _, rt := range runtimes {
		go func(rt *engine.FragmentRuntime) { errs <- rt.Run(ctx) }(rt)
	}
	for range runtimes {
		if err := <-errs; err != nil {
			return err
		}
	}
	if got := sink.n.Load(); got != int64(len(tbl.Tuples)) {
		return fmt.Errorf("exchange delivered %d of %d tuples", got, len(tbl.Tuples))
	}
	return nil
}

// tcpPair is two transport.TCP endpoints on loopback, for timing data
// buffers across a real socket.
type tcpPair struct {
	a, b *transport.TCP
	got  atomic.Int64
}

func newTCPPair() (*tcpPair, error) {
	a, err := transport.NewTCP("bench-a", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b, err := transport.NewTCP("bench-b", "127.0.0.1:0")
	if err != nil {
		_ = a.Close()
		return nil, err
	}
	p := &tcpPair{a: a, b: b}
	a.AddPeer("bench-b", b.Addr())
	b.Register("bench-b", "sink", func(simnet.NodeID, *transport.Message) { p.got.Add(1) })
	return p, nil
}

func (p *tcpPair) close() {
	_ = p.a.Close()
	_ = p.b.Close()
}

// buffers cuts tuples into exchange data messages of the default buffer
// size, with routing buckets as a hash exchange sends them.
func buffers(tuples []relation.Tuple) []*transport.Message {
	var msgs []*transport.Message
	for at := 0; at < len(tuples); at += engine.DefaultBufferTuples {
		end := min(at+engine.DefaultBufferTuples, len(tuples))
		m := &transport.Message{Kind: transport.KindData, Exchange: "XE", StartSeq: int64(at),
			Tuples: tuples[at:end], Buckets: make([]int32, end-at), Checkpoint: int64(end - 1)}
		for i := range m.Buckets {
			m.Buckets[i] = int32((at + i) % engine.DefaultBuckets)
		}
		msgs = append(msgs, m)
	}
	return msgs
}

// trace sends the workload's input as data buffers over the loopback socket
// and replays the codec on both sides of it.
func (p *tcpPair) trace(rec *recorder, id int64, inputs ...[]relation.Tuple) error {
	var (
		msgs   []*transport.Message
		tuples int64
	)
	for _, in := range inputs {
		msgs = append(msgs, buffers(in)...)
		tuples += int64(len(in))
	}
	var frames [][]byte
	if err := timed(rec, id, "transport.wire_marshal", "transport.tcp_send", func() (int64, error) {
		for _, m := range msgs {
			frames = append(frames, transport.MarshalMessage(m))
		}
		return tuples, nil
	}); err != nil {
		return err
	}
	if err := timed(rec, id, "transport.wire_unmarshal", "transport.tcp_send", func() (int64, error) {
		var arena relation.Arena
		for _, f := range frames {
			if _, err := transport.UnmarshalMessageArena(&arena, f); err != nil {
				return 0, err
			}
		}
		return tuples, nil
	}); err != nil {
		return err
	}
	return timed(rec, id, "transport.tcp_send", rootSpan, func() (int64, error) {
		want := p.got.Load() + int64(len(msgs))
		for _, m := range msgs {
			if _, err := p.a.Send("bench-a", "bench-b", "sink", m); err != nil {
				return 0, err
			}
		}
		deadline := time.Now().Add(opCap)
		for p.got.Load() < want {
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("tcp: %d of %d buffers arrived", p.got.Load()-want+int64(len(msgs)), len(msgs))
			}
			time.Sleep(20 * time.Microsecond)
		}
		return int64(len(msgs)), nil
	})
}

// sleepOvershootUs is the mean overshoot of a 200µs time.Sleep — the Meter
// quantum every modelled cost is paid in — in microseconds.
func sleepOvershootUs(samples int) float64 {
	var over time.Duration
	for i := 0; i < samples; i++ {
		t0 := time.Now()
		time.Sleep(vtime.DefaultQuantum)
		over += time.Since(t0) - vtime.DefaultQuantum
	}
	return float64(over) / float64(samples) / float64(time.Microsecond)
}

// losslessBus is a bus whose full subscription queues block the publisher
// instead of dropping, so a burst of events is delivered in full and can be
// timed.
func losslessBus() *bus.Bus {
	return bus.NewWithOptions(vtime.NewClock(time.Nanosecond), nil, bus.Options{Overflow: bus.OverflowBlock})
}

// busPublishDeliverNs is the cost of one notification published and
// delivered to one subscriber, in nanoseconds.
func busPublishDeliverNs(events int) float64 {
	b := losslessBus()
	defer b.Close()
	var delivered atomic.Int64
	sub := b.Subscribe("bench", "n0", "bench.topic", func(bus.Notification) { delivered.Add(1) })
	defer sub.Cancel()
	t0 := time.Now()
	for i := 0; i < events; i++ {
		b.Publish("bench", "n0", "bench.topic", i)
	}
	for delivered.Load() < int64(events) {
		time.Sleep(10 * time.Microsecond)
	}
	return float64(time.Since(t0)) / float64(events)
}

// medObserveNs is the cost of one raw M1 event from the engine's monitor
// adapter through the bus into a MonitoringEventDetector, in nanoseconds
// (bus.publish_deliver_ns is part of it).
func medObserveNs(events int) float64 {
	b := losslessBus()
	defer b.Close()
	med := core.NewMED(context.Background(), b, "n0", core.DefaultMEDConfig())
	defer med.Stop()
	adapter := &core.MonitorAdapter{Bus: b, Node: "n0"}
	t0 := time.Now()
	for i := 0; i < events; i++ {
		adapter.EmitM1(engine.M1Event{Fragment: "F1", Instance: i % 2, Node: "n0",
			CostPerTupleMs: 1 + float64(i%7)/10, Selectivity: 1, Produced: int64(i)})
	}
	for {
		if raw, _ := med.Stats(); raw >= int64(events) {
			break
		}
		time.Sleep(10 * time.Microsecond)
	}
	return float64(time.Since(t0)) / float64(events)
}

// storageLayers measures the storage and codec calls that belong to no
// single query: run writes, budget reservations and tuple encoding.
func storageLayers(m metrics, dir string, tuples []relation.Tuple) error {
	be, err := storage.NewPosix(dir)
	if err != nil {
		return err
	}
	defer be.Close()
	t0 := time.Now()
	w, err := be.Create("bench/run-write")
	if err != nil {
		return err
	}
	if err := w.AppendAll(tuples); err != nil {
		return err
	}
	bytes := w.Bytes()
	if err := w.Close(); err != nil {
		return err
	}
	m["storage.run_write_mb_per_s"] = value{float64(bytes) / 1e6 / time.Since(t0).Seconds(), 1}

	const reserves = 1 << 20
	budget := storage.NewBudget(1 << 20)
	t0 = time.Now()
	for i := 0; i < reserves; i++ {
		budget.Reserve(64)
		budget.Release(64)
	}
	m["storage.budget_reserve_ns"] = value{float64(time.Since(t0)) / reserves, reserves}

	buf := relation.GetEncodeBuffer()
	t0 = time.Now()
	for _, t := range tuples {
		buf = relation.AppendTuple(buf[:0], t)
	}
	m["relation.encode_ns_per_tuple"] = value{float64(time.Since(t0)) / float64(len(tuples)), len(tuples)}
	relation.PutEncodeBuffer(buf)
	return nil
}

package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exp"
	"repro/internal/plancache"
	"repro/internal/services"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/vtime"
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same text).
	why string
	// build sets the workload up: tables, cluster, coordinator and the
	// reference results. Its duration is setup_s.
	build func(e env) (*instance, error)
}

var workloads = []workload{
	{"analytic_serial", "join+aggregate+sort over 30000x47000 stored rows: scan, decode, operators and exchange do all the work, the serving front-end almost none",
		func(e env) (*instance, error) { return buildAnalytic(e, 0) }},
	{"analytic_spill", "same tables and query under a 1 MiB budget: the same storage/engine layers used for run writes, reservations and grace-hash repartitioning beside block reads",
		func(e env) (*instance, error) { return buildAnalytic(e, 1<<20) }},
	{"tcp_join", "same query over four loopback TCP transports and the remote coordinator: wire codec, framing and the second coordinator carry the exchange",
		buildTCP},
	{"serve_hot", "two closed-loop clients, two tiny statement shapes with rotating literals: parse, plan-cache hit, bind, admission and session are the whole cost",
		func(e env) (*instance, error) { return buildServe(e, false) }},
	{"serve_cold", "as serve_hot but 64 shapes round-robin through a plan cache of 8: every arrival misses, evicts and re-plans, bypassing the cache",
		func(e env) (*instance, error) { return buildServe(e, true) }},
	{"adapt_perturbed", "the paper's experiment: Q1 at paper costs with one WS node 10x slower, under R2 then R1; the monitoring-to-response loop decides the time, CPU speed does not",
		buildAdapt},
}

// analyticSeqs and analyticInts size the analytic and TCP tables: ten times
// the paper's.
const (
	analyticSeqs = 30000
	analyticInts = 47000
)

// gdqsOp is one statement through services.GDQS.Execute.
func gdqsOp(g *services.GDQS, sql string, input int64, want digest, ordered bool) op {
	return op{sql: sql, input: input, run: func(ctx context.Context) (func() error, error) {
		res, err := g.Execute(ctx, sql)
		if err != nil {
			return nil, err
		}
		return func() error { return checkRows(sql, res.Rows, ordered, want) }, nil
	}}
}

// buildAnalytic sets up analytic_serial (budget 0) and analytic_spill: the
// demo tables as block-framed runs on a posix backend, seeded by the run's
// seed, behind an in-process coordinator with serial drivers.
func buildAnalytic(e env, budget int64) (*instance, error) {
	nSeq, nInt := e.rows(analyticSeqs), e.rows(analyticInts)
	be, err := storage.NewPosix(filepath.Join(e.dir, "tables"))
	if err != nil {
		return nil, err
	}
	seqs, err := dataset.WriteProteinSequences(be, "base/protein_sequences", nSeq, e.seed)
	if err != nil {
		return nil, err
	}
	ints, err := dataset.WriteProteinInteractions(be, "base/protein_interactions", nInt, nSeq, e.seed)
	if err != nil {
		return nil, err
	}
	store := dataset.NewStore()
	store.Add(seqs)
	store.Add(ints)
	cl, err := realCluster(store)
	if err != nil {
		return nil, err
	}
	// Spill runs go to the in-memory backend (no SpillDir). On a posix
	// directory the same query's throughput differed two- to six-fold
	// between runs in the sandbox this was written in: file I/O timing feeds
	// back into which partitions spill and how often the join restarts. The
	// posix write path is measured on its own as storage.run_write_mb_per_s.
	g, err := services.NewGDQS(cl, "coord", services.GDQSConfig{
		QueryTimeout:      opCap,
		MemoryBudgetBytes: budget,
	})
	if err != nil {
		cl.Close()
		return nil, err
	}
	memSeqs := dataset.ProteinSequences(nSeq, e.seed)
	memInts := dataset.ProteinInteractions(nInt, nSeq, e.seed)
	want := refJoinCount(memSeqs.Tuples, memInts.Tuples)

	layers := &engineLayers{store: store, seqs: memSeqs, ints: memInts, budget: budget}
	if budget > 0 {
		layers.spill = storage.NewMemory()
	}
	front := &frontend{cat: cl.Catalog(), reg: cl.Registry(), coord: "coord",
		cache: plancache.New[*planTemplate](0, nil)}
	o := gdqsOp(g, analyticSQL, int64(nSeq+nInt), want, true)
	return &instance{
		clients: 1,
		warmup:  2,
		next:    func(int, int) op { return o },
		traceOp: func(rec *recorder, id int64, o op) error {
			if err := front.trace(rec, id, o.sql); err != nil {
				return err
			}
			return layers.trace(rec, id)
		},
		layers: func(m metrics) error {
			t0 := time.Now()
			again, err := storage.NewPosix(filepath.Join(e.dir, "generate"))
			if err != nil {
				return err
			}
			defer again.Close()
			if _, err := dataset.WriteProteinSequences(again, "base/protein_sequences", nSeq, e.seed); err != nil {
				return err
			}
			if _, err := dataset.WriteProteinInteractions(again, "base/protein_interactions", nInt, nSeq, e.seed); err != nil {
				return err
			}
			m["dataset.generate_s"] = value{time.Since(t0).Seconds(), 1}
			return storageLayers(m, filepath.Join(e.dir, "run-write"), memInts.Tuples)
		},
		queriesPerOp: 1,
		close: func() {
			cl.Close()
			if layers.spill != nil {
				_ = layers.spill.Close()
			}
			_ = g.SpillBackend().Close()
			_ = be.Close()
		},
	}, nil
}

// buildTCP sets up tcp_join: the manifest deployment of cmd/dqp-coordinator
// and cmd/dqp-evaluator inside one process, each participant behind its own
// loopback TCP transport. The manifest generates its in-memory tables from a
// fixed seed, so this workload's inputs do not vary with the run's seed.
func buildTCP(e env) (*instance, error) {
	nSeq, nInt := e.rows(analyticSeqs), e.rows(analyticInts)
	manifest := services.Manifest{
		Scale:       time.Nanosecond,
		Costs:       realCosts(),
		Coordinator: "coord",
		DataNodes:   []services.DataNodeSpec{{Node: "data1", Sequences: nSeq, Interactions: nInt}},
		Compute: []services.ComputeNodeSpec{
			{Node: "ws0", Speed: 1, EntropyCostMs: 0.001},
			{Node: "ws1", Speed: 1, EntropyCostMs: 0.001},
		},
	}
	var closers []func()
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	nodes := []simnet.NodeID{"coord", "data1", "ws0", "ws1"}
	trs := make(map[simnet.NodeID]*transport.TCP, len(nodes))
	for _, n := range nodes {
		tr, err := transport.NewTCP(n, "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, err
		}
		closers = append(closers, func() { _ = tr.Close() })
		trs[n] = tr
	}
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				trs[a].AddPeer(b, trs[b].Addr())
			}
		}
	}
	for _, n := range nodes[1:] {
		ev, err := services.NewEvaluator(manifest, n, trs[n])
		if err != nil {
			closeAll()
			return nil, err
		}
		closers = append(closers, ev.Close)
	}
	coord, err := services.NewRemoteCoordinator(manifest, trs["coord"])
	if err != nil {
		closeAll()
		return nil, err
	}
	closers = append(closers, coord.Close)

	// The same tables the manifest derives, for the reference, the layer
	// replays and the metadata the front-end replay plans against.
	store := dataset.DemoSized(nSeq, nInt)
	memSeqs, _ := store.Table("protein_sequences")
	memInts, _ := store.Table("protein_interactions")
	want := refJoinCount(memSeqs.Tuples, memInts.Tuples)
	meta, err := realCluster(store)
	if err != nil {
		closeAll()
		return nil, err
	}
	closers = append(closers, meta.Close)
	pair, err := newTCPPair()
	if err != nil {
		closeAll()
		return nil, err
	}
	closers = append(closers, pair.close)
	layers := &engineLayers{store: store, seqs: memSeqs, ints: memInts, tcp: pair}
	front := &frontend{cat: meta.Catalog(), reg: meta.Registry(), coord: "coord"}

	o := op{sql: analyticSQL, input: int64(nSeq + nInt), run: func(ctx context.Context) (func() error, error) {
		res, err := coord.Execute(ctx, analyticSQL, opCap)
		if err != nil {
			return nil, err
		}
		return func() error { return checkRows(analyticSQL, res.Rows, true, want) }, nil
	}}
	return &instance{
		clients: 1,
		warmup:  2,
		next:    func(int, int) op { return o },
		traceOp: func(rec *recorder, id int64, o op) error {
			// Every participant regenerates the tables to derive its
			// metadata each time it plans (Manifest.metadata).
			if err := timed(rec, id, "dataset.generate", rootSpan, func() (int64, error) {
				dataset.DemoSized(nSeq, nInt)
				return int64(nSeq + nInt), nil
			}); err != nil {
				return err
			}
			if err := front.trace(rec, id, o.sql); err != nil {
				return err
			}
			return layers.trace(rec, id)
		},
		layers: func(m metrics) error {
			t0 := time.Now()
			dataset.DemoSized(nSeq, nInt)
			m["dataset.generate_s"] = value{time.Since(t0).Seconds(), 1}
			return nil
		},
		queriesPerOp: 1,
		close:        closeAll,
	}, nil
}

// serveSeqs and serveInts size the serving tables: small on purpose, so the
// serving path and not the operators is the cost.
const (
	serveSeqs = 240
	serveInts = 360
	// coldShapes is serve_cold's working set and coldCache its plan-cache
	// capacity; coldLiterals is how many literals each shape rotates
	// through.
	coldShapes   = 64
	coldCache    = 8
	coldLiterals = 4
)

// hotShapes are the two statement shapes of internal/servebench: a point
// lookup and a filtered join.
var hotShapes = []shape{
	{proj: []col{{'p', 0}, {'p', 1}}, pred: col{'p', 0}, op: "="},
	{join: true, proj: []col{{'i', 1}}, pred: col{'i', 1}, op: "="},
}

// coldShapeHalves enumerates join/no join x four projections x two predicate
// columns x four comparisons and deals them into two halves, one per client,
// with the same number of joins and of each comparison in either, so that the
// two clients do like work whatever order the seed puts the shapes in.
func coldShapeHalves() [2][]shape {
	var out [2][]shape
	for _, join := range []bool{false, true} {
		projs := [][]col{{{'p', 0}}, {{'p', 1}}, {{'p', 0}, {'p', 1}}, {{'p', 1}, {'p', 0}}}
		preds := []col{{'p', 0}, {'p', 1}}
		if join {
			projs = [][]col{{{'i', 1}}, {{'p', 0}, {'i', 1}}, {{'i', 1}, {'p', 0}}, {{'i', 0}, {'i', 1}}}
			preds = []col{{'i', 1}, {'p', 0}}
		}
		for pi, proj := range projs {
			for qi, pred := range preds {
				for ci, cmp := range []string{"=", "<>", "<", ">="} {
					half := (pi + qi + ci) % 2
					out[half] = append(out[half], shape{join: join, proj: proj, pred: pred, op: cmp})
				}
			}
		}
	}
	return out
}

// buildServe sets up serve_hot and serve_cold: tiny in-memory tables behind
// an in-process coordinator, two closed-loop clients. The seed fixes the
// order of literals (hot) and of shapes and their literals (cold).
func buildServe(e env, cold bool) (*instance, error) {
	store := dataset.DemoSized(serveSeqs, serveInts)
	cl, err := realCluster(store)
	if err != nil {
		return nil, err
	}
	cacheSize := 0
	if cold {
		cacheSize = coldCache
	}
	g, err := services.NewGDQS(cl, "coord", services.GDQSConfig{QueryTimeout: opCap, PlanCacheSize: cacheSize})
	if err != nil {
		cl.Close()
		return nil, err
	}
	seqTbl, _ := store.Table("protein_sequences")
	intTbl, _ := store.Table("protein_interactions")
	seqs, ints := seqTbl.Tuples, intTbl.Tuples
	rng := rand.New(rand.NewSource(e.seed))

	// literals returns coldLiterals values of column c in seeded order: the
	// values at evenly spaced ranks of the sorted column, so that whatever the
	// seed, a cycle through every shape's literals selects the same shares of
	// the tables and does the same work; the seed only orders it.
	literals := func(c col) []string {
		rows := seqs
		if c.table == 'i' {
			rows = ints
		}
		vals := make([]string, len(rows))
		for i, r := range rows {
			vals[i] = r[c.ord].AsString()
		}
		sort.Strings(vals)
		out := make([]string, coldLiterals)
		for i, k := range rng.Perm(coldLiterals) {
			out[i] = vals[(2*k+1)*len(vals)/(2*coldLiterals)]
		}
		return out
	}
	mk := func(s shape, lit string) op {
		input := int64(serveSeqs)
		if s.join {
			input += serveInts
		}
		return gdqsOp(g, s.sql(lit), input, s.eval(seqs, ints, lit), false)
	}

	// ops is the workload's cycle of operations. Hot: both shapes for each
	// literal in seeded order; the two clients walk it half a cycle (plus
	// one, to start on different shapes) apart. Cold: coldLiterals rounds of
	// the 64 shapes in seeded order; each client cycles through its own half
	// of the shapes, so a shape returns only after 31 others went through
	// the cache of 8 and every arrival misses however the clients drift.
	const clients = 2
	var ops []op
	if cold {
		var shapes []shape
		for _, half := range coldShapeHalves() {
			rng.Shuffle(len(half), func(i, j int) { half[i], half[j] = half[j], half[i] })
			shapes = append(shapes, half...)
		}
		lits := make([][]string, len(shapes))
		for i, s := range shapes {
			lits[i] = literals(s.pred)
		}
		for round := 0; round < coldLiterals; round++ {
			for i, s := range shapes {
				ops = append(ops, mk(s, lits[i][round]))
			}
		}
	} else {
		for _, k := range rng.Perm(serveSeqs) {
			for _, s := range hotShapes {
				ops = append(ops, mk(s, seqs[k][0].AsString()))
			}
		}
	}
	front := &frontend{cat: cl.Catalog(), reg: cl.Registry(), coord: "coord",
		cache: plancache.New[*planTemplate](cacheSize, nil)}
	return &instance{
		clients: clients,
		warmup:  coldShapes,
		next: func(c, i int) op {
			if cold {
				const half = coldShapes / clients
				return ops[(i/half%coldLiterals)*coldShapes+c*half+i%half]
			}
			return ops[(i+c*(len(ops)/clients+1))%len(ops)]
		},
		traceOp:      func(rec *recorder, id int64, o op) error { return front.trace(rec, id, o.sql) },
		queriesPerOp: 1,
		close:        cl.Close,
	}, nil
}

// adaptSeqs and adaptInts are the paper's table sizes.
const (
	adaptSeqs = 3000
	adaptInts = 4700
)

// adaptGrid is the simulated Grid of the adapt_perturbed workload: table
// sizes and which WS node is ten times slower.
type adaptGrid struct {
	nSeq, nInt, slow int
}

// adaptRun is one configuration of a paper query.
type adaptRun struct {
	// name keys the run's statistics: q1 (Q1, A1/R2), q1r1 (Q1, A1/R1) or
	// q2 (Q2, A1/R1).
	name     string
	query    string
	response core.Response
	want     digest
}

// run executes the query through exp.Run (paper mode: calibrated costs at
// 10µs per paper millisecond) and checks its rows against the reference.
// exp.Run takes no context, so ctx only bounds the wait: a run still going
// when it ends is abandoned and reported as an error.
func (a adaptRun) run(ctx context.Context, g adaptGrid, adaptive, perturbed bool) (*exp.Result, error) {
	cfg := exp.Config{Query: a.query, Sequences: g.nSeq, Interactions: g.nInt, WSNodes: 2,
		Adaptive: adaptive, Assessment: core.A1, Response: a.response}
	if perturbed {
		cfg.Perturb = map[int]vtime.Perturbation{g.slow: vtime.Multiplier(10)}
	}
	type outcome struct {
		res *exp.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := exp.Run(cfg)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			return nil, o.err
		}
		return o.res, checkRows(a.query, o.res.Rows, false, a.want)
	case <-ctx.Done():
		return nil, fmt.Errorf("%s: %w", a.query, ctx.Err())
	}
}

// buildAdapt sets up adapt_perturbed. An operation is Q1 twice on the
// adaptive Grid with the seed-chosen WS node ten times slower: once under
// A1/R2 (prospective: only future tuples follow the new weights) and once
// under A1/R1 (retrospective: queued tuples are recalled and resent). Every
// exp.Run assembles its own cluster, so set-up is the reference computation
// alone. The static and unperturbed controls the paper's ratios need, and
// the stateful query Q2, run in the traced pass only (see adaptStats).
func buildAdapt(e env) (*instance, error) {
	grid := adaptGrid{nSeq: e.rows(adaptSeqs), nInt: e.rows(adaptInts),
		slow: rand.New(rand.NewSource(e.seed)).Intn(2)}
	store := dataset.DemoSized(grid.nSeq, grid.nInt)
	seqTbl, _ := store.Table("protein_sequences")
	intTbl, _ := store.Table("protein_interactions")
	entropy := refEntropy(seqTbl.Tuples)
	q1 := adaptRun{name: "q1", query: exp.Q1, response: core.R2, want: entropy}
	q1r1 := adaptRun{name: "q1r1", query: exp.Q1, response: core.R1, want: entropy}
	q2 := adaptRun{name: "q2", query: exp.Q2, response: core.R1,
		want: shape{join: true, proj: []col{{'i', 1}}, pred: col{'i', 1}, op: ">="}.eval(seqTbl.Tuples, intTbl.Tuples, "")}

	stats := &adaptStats{grid: grid, respMs: map[string][]float64{}}
	o := op{input: int64(2 * grid.nSeq), run: func(ctx context.Context) (func() error, error) {
		for _, q := range []adaptRun{q1, q1r1} {
			res, err := q.run(ctx, grid, true, true)
			if err != nil {
				return nil, err
			}
			stats.perturbed(q.name, res)
		}
		return func() error { return nil }, nil
	}}
	return &instance{
		clients: 1,
		next:    func(int, int) op { return o },
		layers: func(m metrics) error {
			const events = 200000
			m["bus.publish_deliver_ns"] = value{busPublishDeliverNs(events), events}
			m["core.med_observe_ns"] = value{medObserveNs(events), events}
			t0 := time.Now()
			dataset.DemoSized(grid.nSeq, grid.nInt)
			m["dataset.generate_s"] = value{time.Since(t0).Seconds(), 1}
			return stats.controls(m, q1, q2, e.smoke)
		},
		queriesPerOp: 2,
		close:        func() {},
	}, nil
}

// adaptStats accumulates what the perturbed adaptive runs observed, for the
// per-layer core.* metrics. One client drives adapt_perturbed, so it needs no
// lock.
type adaptStats struct {
	grid adaptGrid
	runs int
	// respMs holds the perturbed adaptive response times per adaptRun name,
	// in paper milliseconds.
	respMs                                             map[string][]float64
	raw, notified, proposals, adapted, moved, replayed int64
	adaptMs, firstShare, slowShare                     []float64
	// hung counts Q2 runs abandoned because they never finished.
	hung int
}

func (s *adaptStats) perturbed(name string, res *exp.Result) {
	st := res.Stats
	s.runs++
	s.respMs[name] = append(s.respMs[name], res.ResponseMs)
	s.raw += st.RawEvents
	s.notified += st.MEDNotifications
	s.proposals += st.Proposals
	s.adapted += st.Adaptations
	s.moved += st.TuplesMoved
	s.replayed += st.StateReplays
	first := true
	for _, ev := range st.Timeline {
		if ev.Outcome != "adapted" {
			continue
		}
		s.adaptMs = append(s.adaptMs, ev.DurationMs)
		if first {
			s.firstShare = append(s.firstShare, ev.AtMs/res.ResponseMs)
			first = false
		}
	}
	var total int64
	for _, n := range res.ConsumedByWS {
		total += n
	}
	if total > 0 {
		s.slowShare = append(s.slowShare, float64(res.ConsumedByWS[s.grid.slow])/float64(total))
	}
}

// hangAfter is how long a paper-mode run (under a second of wall time) may
// take before it is abandoned as hung.
const hangAfter = 10 * time.Second

// tolerant runs a configuration, trying again when the run hangs. At the
// commit this benchmark was written against, an adaptive Q2 on a perturbed
// Grid deadlocks in about one run in seventy — both join instances blocked in
// Consumer.NextBatch after a state replay, their producers gone — which is
// why Q2 is not part of the workload's operations; here a hang is counted
// (core.q2_hung_runs) and the measurement repeated.
func (s *adaptStats) tolerant(a adaptRun, adaptive, perturbed bool) (*exp.Result, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), hangAfter)
		var res *exp.Result
		res, err = a.run(ctx, s.grid, adaptive, perturbed)
		cancel()
		if err == nil {
			return res, nil
		}
		if ctx.Err() == nil {
			return nil, err
		}
		s.hung++
	}
	return nil, err
}

// controls runs what the paper normalises against — static and adaptive on
// the unperturbed Grid (twice each, median), static on the perturbed one
// (once) — plus Q2's own perturbed adaptive runs, and fills the core.*
// metrics.
func (s *adaptStats) controls(m metrics, q1, q2 adaptRun, smoke bool) error {
	reps := 2
	if smoke {
		reps = 1
	}
	for _, a := range []adaptRun{q1, q2} {
		var static, adaptive []float64
		for r := 0; r < reps; r++ {
			for _, on := range []bool{false, true} {
				res, err := s.tolerant(a, on, false)
				if err != nil {
					return err
				}
				if on {
					adaptive = append(adaptive, res.ResponseMs)
				} else {
					static = append(static, res.ResponseMs)
				}
			}
		}
		slowed, err := s.tolerant(a, false, true)
		if err != nil {
			return err
		}
		if a.name == q2.name {
			for r := 0; r < reps+1; r++ {
				res, err := s.tolerant(a, true, true)
				if err != nil {
					return err
				}
				s.perturbed(a.name, res)
			}
		}
		base := median(static)
		m["core.adapt_norm_"+a.name] = value{median(s.respMs[a.name]) / base, len(s.respMs[a.name])}
		m["core.adapt_overhead_"+a.name] = value{median(adaptive) / base, reps}
		m["core.static_perturbed_norm_"+a.name] = value{slowed.ResponseMs / base, 1}
	}
	runs := float64(max(s.runs, 1))
	m["core.raw_events_per_query"] = value{float64(s.raw) / runs, s.runs}
	m["core.med_notifications_per_query"] = value{float64(s.notified) / runs, s.runs}
	m["core.proposals_per_query"] = value{float64(s.proposals) / runs, s.runs}
	m["core.adaptations_per_query"] = value{float64(s.adapted) / runs, s.runs}
	m["core.tuples_moved_per_query"] = value{float64(s.moved) / runs, s.runs}
	m["core.state_replays_per_query"] = value{float64(s.replayed) / runs, s.runs}
	m["core.adaptation_ms_mean"] = value{mean(s.adaptMs), len(s.adaptMs)}
	m["core.first_adapt_at_share"] = value{median(s.firstShare), len(s.firstShare)}
	m["core.slow_node_tuple_share"] = value{median(s.slowShare), len(s.slowShare)}
	m["core.q2_hung_runs"] = value{float64(s.hung), s.runs}
	return nil
}

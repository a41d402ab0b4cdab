package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/services"
	"repro/internal/simnet"
	"repro/internal/ws"
)

// analyticSQL is the join + aggregate + sort statement of the analytic and
// TCP workloads.
const analyticSQL = "select p.ORF, count(*) AS n from protein_sequences p, protein_interactions i" +
	" where i.ORF1 = p.ORF group by p.ORF order by p.ORF"

// env is what one set-up receives.
type env struct {
	seed int64
	// dir is a fresh scratch directory owned by this set-up.
	dir string
	// smoke shrinks tables to a twentieth, for tests.
	smoke bool
}

// rows scales a table cardinality for smoke runs.
func (e env) rows(n int) int {
	if e.smoke {
		return max(n/20, 8)
	}
	return n
}

// op is one operation a client issues.
type op struct {
	// sql is the statement text the front-end replays parse; empty when the
	// operation is not a single statement.
	sql string
	// input is how many stored rows the operation scans.
	input int64
	// run issues the operation through the production entry point and
	// returns a check of its result against the reference, run after the
	// clock has stopped.
	run func(ctx context.Context) (verify func() error, err error)
}

// instance is one set-up workload, ready to be driven.
type instance struct {
	// clients is the number of closed-loop client goroutines.
	clients int
	// warmup is how many operations each client issues before measuring.
	warmup int
	// next returns client c's i-th operation; the sequence is fixed by the
	// seed.
	next func(c, i int) op
	// traceOp replays the layer stages of o and records their spans under
	// operation id; nil when the workload has none.
	traceOp func(rec *recorder, id int64, o op) error
	// layers runs, after the traced stretch, the measurements that belong
	// to no single operation; nil when the workload has none.
	layers func(m metrics) error
	// queriesPerOp converts per-operation counts to per-query ones.
	queriesPerOp int
	close        func()

	// pos is each client's position in its operation sequence, carried
	// across warm-up and stretches.
	pos []int
}

// phase is what one measured stretch of operations observed.
type phase struct {
	latMs     []float64
	attempted int
	failed    int
	input     int64
	// wall is the stretch's duration without the time spent checking
	// results.
	wall time.Duration
	// cpu is the process's user plus system CPU time over the stretch.
	cpu      time.Duration
	mem0     runtime.MemStats
	mem1     runtime.MemStats
	firstErr error
}

func (p *phase) ok() int { return p.attempted - p.failed }

// opCap bounds how long past its end a stretch may run: operations still in
// flight then are cancelled and counted as failed instead of hanging the run.
const opCap = 60 * time.Second

// drive runs the instance's clients for about d (each client issues at least
// one operation). With rec set, every operation is preceded by its layer
// replays and wrapped in a root span.
func drive(inst *instance, d time.Duration, rec *recorder) phase {
	var (
		mu  sync.Mutex
		out phase
		wg  sync.WaitGroup
	)
	ctx, cancel := context.WithTimeout(context.Background(), d+opCap)
	defer cancel()
	runtime.GC()
	runtime.ReadMemStats(&out.mem0)
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(d)
	var verifying atomic.Int64
	for c := 0; c < inst.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local phase
			for n := 0; n == 0 || time.Now().Before(deadline); n++ {
				o := inst.next(c, inst.pos[c])
				inst.pos[c]++
				local.attempted++
				var id int64
				if rec != nil {
					id = rec.nextOp.Add(1) - 1
					if inst.traceOp != nil {
						if err := inst.traceOp(rec, id, o); err != nil {
							local.fail(fmt.Errorf("layer replay: %w", err))
							continue
						}
					}
				}
				t0 := time.Now()
				verify, err := o.run(ctx)
				t1 := time.Now()
				if rec != nil {
					rec.add(id, rootSpan, "", t0, t1, 0)
				}
				if err == nil {
					err = verify()
					verifying.Add(int64(time.Since(t1)))
				}
				if err != nil {
					local.fail(err)
					continue
				}
				local.latMs = append(local.latMs, float64(t1.Sub(t0))/float64(time.Millisecond))
				local.input += o.input
			}
			mu.Lock()
			out.latMs = append(out.latMs, local.latMs...)
			out.attempted += local.attempted
			out.failed += local.failed
			out.input += local.input
			if out.firstErr == nil {
				out.firstErr = local.firstErr
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	out.wall = time.Since(start) - time.Duration(verifying.Load()/int64(inst.clients))
	out.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&out.mem1)
	return out
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (p *phase) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// warm issues each client's warm-up operations, unmeasured; a failure there
// fails the run.
func warm(inst *instance) error {
	ctx, cancel := context.WithTimeout(context.Background(), opCap)
	defer cancel()
	errs := make(chan error, inst.clients)
	for c := 0; c < inst.clients; c++ {
		go func(c int) {
			for n := 0; n < inst.warmup; n++ {
				o := inst.next(c, inst.pos[c])
				inst.pos[c]++
				verify, err := o.run(ctx)
				if err == nil {
					err = verify()
				}
				if err != nil {
					errs <- fmt.Errorf("warm-up: %w", err)
					return
				}
			}
			errs <- nil
		}(c)
	}
	var first error
	for c := 0; c < inst.clients; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// realCosts is the real-cost mode's cost model: every modelled cost a
// thousandth of a paper millisecond, which at a 1ns scale never sleeps, so
// what remains is the engine's own CPU, allocation and synchronisation.
func realCosts() engine.Costs {
	const c = 0.001
	return engine.Costs{
		ScanMs: c, ScanByteMs: c, FilterMs: c, ProjectMs: c, JoinBuildMs: c, JoinProbeMs: c,
		AggMs: c, SortMs: c, StartupMs: c, AdaptStartupMs: c, LogAppendMs: c,
	}
}

// realCluster assembles the real-cost Grid: coordinator, one data node and
// two compute nodes on loopback links at a 1ns time scale.
func realCluster(store *dataset.Store) (*services.Cluster, error) {
	cl := services.NewCluster(services.ClusterConfig{Scale: time.Nanosecond, Costs: realCosts()})
	cl.Network().SetDefaultLink(simnet.Loopback)
	if err := cl.AddDataNode("data1", store); err != nil {
		cl.Close()
		return nil, err
	}
	for _, n := range []simnet.NodeID{"ws0", "ws1"} {
		if err := cl.AddComputeNode(n, 1.0, ws.NewRegistry(ws.Entropy{CostMs: 0.001}, ws.SequenceLength{})); err != nil {
			cl.Close()
			return nil, err
		}
	}
	return cl, nil
}

package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/physical"
)

// This file implements the fragment runtime's morsel-driven execution mode
// for stateless chains (scan → filter/project/op-call → exchange): the
// fragment's operator chain is replicated once per worker, the chains share
// their leaves (scans claiming batch-sized runs or whole stored blocks off
// one shared counter, or the fragment's exchange Consumer handing each
// worker its own in-flight window), and every worker pushes its results into
// the sharded output exchange independently. Each worker runs the driver's
// one batch loop (FragmentRuntime.drive), the loop that runs the compiled
// tree at width 1.

// width is the number of operator chains Run drives, the one place a
// fragment's width is decided: the context's Parallelism when the fragment
// may run under the worker pool, 1 otherwise. Its output must be an
// exchange (producers are order-insensitive across workers; a result sink
// is not), its chain must hold no operator with state (a join or aggregate,
// whose state the plan partitions across instances, never across workers)
// or order (a sort or limit), and the instance must not be elastic: the
// commit pairing of held-output flushes with processed-prefix acks assumes
// one puller.
func (r *FragmentRuntime) width() int {
	p := r.cfg.Ctx.Parallelism
	if p <= 1 || r.producer == nil || r.cfg.FT || !specParallelOK(r.cfg.Fragment.Root) {
		return 1
	}
	return p
}

func specParallelOK(s *physical.OpSpec) bool {
	switch s.Kind {
	case physical.KJoin, physical.KAggregate, physical.KSort, physical.KLimit:
		return false
	}
	for _, c := range s.Children {
		if !specParallelOK(c) {
			return false
		}
	}
	return true
}

// buildWorkerChain mirrors compile() for one worker: per-row operators are
// fresh per worker, scans share one claim counter per leaf spec (created by
// the first chain to reach it), and exchange leaves are worker handles on the
// compiled Consumer.
func (r *FragmentRuntime) buildWorkerChain(spec *physical.OpSpec, claims map[*physical.OpSpec]*atomic.Int64) (Iterator, error) {
	switch spec.Kind {
	case physical.KScan:
		claim := claims[spec]
		if claim == nil {
			claim = new(atomic.Int64)
			claims[spec] = claim
		}
		return &TableScan{Table: spec.Table, claim: claim}, nil

	case physical.KFilter, physical.KProject, physical.KOpCall:
		child, err := r.buildWorkerChain(spec.Children[0], claims)
		if err != nil {
			return nil, err
		}
		return rowOp(spec, child)

	case physical.KConsume:
		return r.consumers[spec.Exchange].NewWorker(), nil

	default:
		return nil, fmt.Errorf("engine: operator kind %v not parallel-eligible", spec.Kind)
	}
}

// runParallel drives the fragment on a pool of workers: it builds one
// operator chain per worker over shared leaves and runs the driver's batch
// loop on each concurrently, every worker pushing its batches into the
// sharded producer independently. The first worker error
// interrupts the siblings and is returned; Run owns the startup charges and
// the close, flush and cancel tail.
func (r *FragmentRuntime) runParallel(ctx context.Context, workers int) error {
	ectx := r.cfg.Ctx
	claims := make(map[*physical.OpSpec]*atomic.Int64)
	chains := make([]Iterator, workers)
	wctxs := make([]*ExecContext, workers)
	for w := range chains {
		chain, err := r.buildWorkerChain(r.cfg.Fragment.Root, claims)
		if err != nil {
			// Chains already built hold worker handles on the fragment's
			// consumers; close them so the last handle closes the consumer.
			for _, c := range chains[:w] {
				_ = c.Close()
			}
			return err
		}
		chains[w] = chain
		wctxs[w] = ectx.workerContext()
	}
	o := obs.Default()
	gauge := o.Gauge(obs.MEngineParallelWorkers)
	morselMs := o.Histogram(obs.MEngineMorselMs, obs.DefBucketsLatencyMs)
	gauge.Add(int64(workers))
	defer gauge.Add(int64(-workers))

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := range chains {
		wg.Add(1)
		go func(chain Iterator, wctx *ExecContext) {
			defer wg.Done()
			err := r.drive(ctx, chain, wctx, morselMs)
			if err == nil {
				return
			}
			errOnce.Do(func() {
				firstErr = err
				r.fail(err)
				// Unblock siblings parked in consumer waits or producer
				// barriers.
				r.interrupt(err)
			})
		}(chains[w], wctxs[w])
	}
	wg.Wait()
	return firstErr
}

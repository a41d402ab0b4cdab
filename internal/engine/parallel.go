package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/physical"
)

// This file implements the fragment runtime's morsel-driven execution mode:
// the fragment's operator chain is replicated once per worker, the chains
// share their leaves (scans claiming batch-sized runs or whole stored blocks
// off one shared counter, or the fragment's exchange Consumer handing each
// worker its own in-flight window), stateful operators share their
// partitioned state behind a build barrier, and every worker pushes its
// results into the sharded output exchange independently. Each worker runs
// the driver's one batch loop (FragmentRuntime.drive), the loop that runs the
// compiled tree at width 1. Fragments whose sink is order-sensitive (result
// sinks, sorts, limits) always run at width 1.

// parallelOK reports whether the fragment may run under the worker pool:
// its output must be an exchange (producers are order-insensitive across
// workers; a result sink is not) and its chain must not contain an
// order-sensitive operator.
func (r *FragmentRuntime) parallelOK() bool {
	return r.producer != nil && specParallelOK(r.cfg.Fragment.Root)
}

func specParallelOK(s *physical.OpSpec) bool {
	switch s.Kind {
	case physical.KSort, physical.KLimit:
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
// fresh per worker, stateful operators are clones sharing the compiled
// instance's state, scans share one claim counter per leaf spec (created by
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

	case physical.KJoin:
		build, err := r.buildWorkerChain(spec.Children[0], claims)
		if err != nil {
			return nil, err
		}
		probe, err := r.buildWorkerChain(spec.Children[1], claims)
		if err != nil {
			return nil, err
		}
		return r.joinBySpec[spec].WorkerClone(build, probe), nil

	case physical.KAggregate:
		child, err := r.buildWorkerChain(spec.Children[0], claims)
		if err != nil {
			return nil, err
		}
		return r.aggBySpec[spec].WorkerClone(child), nil

	case physical.KConsume:
		return r.consumers[spec.Exchange].NewWorker(), nil

	default:
		return nil, fmt.Errorf("engine: operator kind %v not parallel-eligible", spec.Kind)
	}
}

// abortBarriers releases workers blocked on a stateful operator's build
// barrier when a sibling failed before arriving there.
func (r *FragmentRuntime) abortBarriers() {
	for _, j := range r.joinBySpec {
		j.Abort()
	}
	for _, a := range r.aggBySpec {
		a.Abort()
	}
}

// runParallel drives the fragment on a pool of workers: it builds one
// operator chain per worker over shared leaves and shared operator state and
// runs the driver's batch loop on each concurrently, every worker pushing its
// batches into the sharded producer independently. The first worker error
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
			// Chains already built hold clone references on shared operator
			// state; close them so the last reference frees the state.
			for _, c := range chains[:w] {
				_ = c.Close()
			}
			return err
		}
		chains[w] = chain
		wctxs[w] = ectx.workerContext()
	}
	for _, j := range r.joinBySpec {
		j.SetWorkers(workers)
	}
	for _, a := range r.aggBySpec {
		a.SetWorkers(workers)
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
				// Unblock siblings parked in consumer waits, producer barriers,
				// or a build barrier the failed worker never reached.
				r.interrupt(err)
				r.abortBarriers()
			})
		}(chains[w], wctxs[w])
	}
	wg.Wait()
	return firstErr
}

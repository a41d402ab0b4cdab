package engine

import "sync"

// flowGate coordinates a fragment instance's tuple flow with the control
// plane. All exchange-consumer queues of one fragment instance share the
// gate's mutex, and the gate tracks whether a popped tuple is still being
// processed ("in flight"). Quiesce blocks new pops and waits for the
// in-flight tuple to finish, giving the retrospective-adaptation protocol a
// moment where the instance is provably between tuples: the queue can be
// filtered without racing a half-processed tuple.
//
// The gate also carries the instance's R1 state operations — replay inserts
// and bucket evictions — to the one goroutine that owns operator state: post
// queues them in arrival order, and every consumer pop runs the queued ones
// on the driver before it pops a tuple or reports end of stream. Once the
// driver has closed its chain, done is set and post runs each operation at
// once under mu, so calls into the operator stay serialized.
type flowGate struct {
	mu       sync.Mutex
	cond     *sync.Cond
	inflight int
	paused   bool
	ops      []func()
	done     bool
}

func newFlowGate() *flowGate {
	g := &flowGate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// quiesce runs fn while the instance is paused between tuples.
func (g *flowGate) quiesce(fn func()) {
	g.mu.Lock()
	g.paused = true
	for g.inflight > 0 {
		g.cond.Wait()
	}
	fn()
	g.paused = false
	g.cond.Broadcast()
	g.mu.Unlock()
}

// locked runs fn under the gate mutex (for queue mutations from the data
// path).
func (g *flowGate) locked(fn func()) {
	g.mu.Lock()
	fn()
	g.mu.Unlock()
}

// post hands an R1 state operation to the driver, waking it if it is parked
// in a pop; once the driver is done it runs op under the gate mutex instead.
func (g *flowGate) post(op func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.done {
		op()
		return
	}
	g.ops = append(g.ops, op)
	g.cond.Broadcast()
}

// runOpsLocked runs the queued state operations in arrival order with the
// gate mutex dropped, so a replay's modelled cost never holds up delivery or
// a quiesce. Caller holds mu; the driver's pop is its one caller.
func (g *flowGate) runOpsLocked() {
	ops := g.ops
	g.ops = nil
	g.mu.Unlock()
	for _, op := range ops {
		op()
	}
	g.mu.Lock()
}

// finish marks the driver done — it must have closed its chain — and runs
// what it left queued under the gate mutex.
func (g *flowGate) finish() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.done = true
	for _, op := range g.ops {
		op()
	}
	g.ops = nil
}

// Package chaos injects evaluator crashes into a simulated Grid at
// deterministic points in the query's own event stream. It exists for the
// elastic-cluster tests — kill an evaluator mid-query, assert the answer is
// still exact.
//
// All injections go through the Cluster's public crash-stop machinery, so
// they are exactly as authoritative as a real machine loss: messages fail
// with transport.NodeDownError, uncommitted work vanishes, and a membership
// "leave" event is published.
package chaos

import (
	"sync"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/services"
	"repro/internal/simnet"
)

// Injector scripts faults against one simulated Grid.
type Injector struct {
	cluster *services.Cluster

	mu      sync.Mutex
	cancels []func()
}

// New returns an Injector for the cluster.
func New(cluster *services.Cluster) *Injector {
	return &Injector{cluster: cluster}
}

// KillAfterEvents crash-stops victim once the machine observed has emitted
// count raw monitoring events — a deterministic mid-query kill point tied
// to query progress rather than wall-clock time. The victim may be the
// observed machine itself. Requires an adaptive GDQS (static evaluators
// emit no monitoring traffic).
func (in *Injector) KillAfterEvents(observed, victim simnet.NodeID, count int) {
	seen := 0
	var once sync.Once
	topic := bus.Topic(core.TopicRawPrefix + string(observed))
	sub := in.cluster.Bus().Subscribe("chaos", observed, topic, func(n bus.Notification) {
		seen++
		if seen >= count {
			once.Do(func() { _ = in.cluster.KillNode(victim) })
		}
	})
	in.mu.Lock()
	in.cancels = append(in.cancels, sub.Cancel)
	in.mu.Unlock()
}

// Close cancels every pending injection (already-fired ones are not
// undone — crash-stops are permanent).
func (in *Injector) Close() {
	in.mu.Lock()
	cancels := in.cancels
	in.cancels = nil
	in.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

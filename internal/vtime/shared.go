package vtime

import (
	"sync/atomic"
	"time"
)

// SharedMeter is the concurrency-safe counterpart of Meter: many goroutines
// may Charge it at once. Debt accumulates through an atomic add; the
// goroutine whose charge tips the accumulated debt over the quantum swaps the
// whole debt out and sleeps it off, so the long-run rate matches a single
// Meter while other chargers proceed unblocked. Stateful operators use one
// for R1 replay absorption, which arrives on transport goroutines where the
// driver's goroutine-confined Meter's single-owner contract cannot hold.
type SharedMeter struct {
	clock   *Clock
	quantum time.Duration
	// debtNs is the accumulated unslept debt in nanoseconds; it may go
	// negative when the OS timer overshoots (bounded oversleep credit).
	debtNs atomic.Int64
}

// NewSharedMeter returns a concurrency-safe meter over clock with the
// default quantum.
func NewSharedMeter(clock *Clock) *SharedMeter {
	return &SharedMeter{clock: clock, quantum: DefaultQuantum}
}

// Charge records a cost of ms paper milliseconds. The caller sleeps only if
// its charge tips the accumulated debt over the quantum.
func (m *SharedMeter) Charge(ms float64) {
	d := m.clock.DurationOf(ms)
	if d <= 0 {
		return
	}
	if m.debtNs.Add(int64(d)) >= int64(m.quantum) {
		m.settle()
	}
}

// settle swaps the debt out and sleeps it; concurrent chargers keep
// accumulating fresh debt meanwhile. Oversleep is credited back, clamped to
// the same bound as Meter so free-work bursts stay limited.
func (m *SharedMeter) settle() {
	owed := m.debtNs.Swap(0)
	if owed <= 0 {
		m.debtNs.Add(owed) // restore credit taken by the swap
		return
	}
	begin := time.Now()
	time.Sleep(time.Duration(owed))
	over := int64(time.Since(begin)) - owed
	if over <= 0 {
		return
	}
	if m.debtNs.Add(-over) < -10*int64(m.quantum) {
		// Benignly racy clamp: the bound is a heuristic, not an invariant.
		m.debtNs.Store(-10 * int64(m.quantum))
	}
}

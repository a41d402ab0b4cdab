package storage

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Budget is the per-query memory accountant: stateful operators reserve
// bytes as they buffer tuples and release them when state is spilled,
// drained or freed. A breach (Over) does not block — it is the signal for
// the operator to grace-hash-spill a partition or flush a sort run.
//
// The balance is one exact atomic counter shared by every fragment instance
// and every morsel worker of the query, so Over is true exactly when the
// reserved bytes exceed the limit. Releasing bytes that were never reserved
// (an operator error path after a failed spill) clamps the balance at zero
// and counts mem_overrelease_total instead of driving the accountant — and
// the mem_inflight_bytes gauge — negative.
//
// All methods are safe on a nil *Budget (unbudgeted execution) and for
// concurrent use.
type Budget struct {
	limit   int64
	used    atomic.Int64
	gauge   *obs.Gauge
	overrel *obs.Counter
}

// NewBudget returns an accountant enforcing the given byte limit
// (non-positive limits never report Over). Inflight bytes are mirrored to
// the mem_inflight_bytes gauge; clamped over-releases count
// mem_overrelease_total.
func NewBudget(limit int64) *Budget {
	return &Budget{
		limit:   limit,
		gauge:   obs.Default().Gauge(obs.MMemInflight),
		overrel: obs.Default().Counter(obs.MMemOverrelease),
	}
}

// Reserve accounts n bytes of operator state; negative n is a Release.
func (b *Budget) Reserve(n int64) {
	if b == nil || n == 0 {
		return
	}
	if n < 0 {
		b.Release(-n)
		return
	}
	// Gauge before balance: a concurrent release clamps against the balance,
	// so every gauge decrement is covered by an already-applied increment and
	// mem_inflight_bytes can never go negative.
	b.gauge.Add(n)
	b.used.Add(n)
}

// Release returns n previously reserved bytes, clamping the balance at zero:
// bytes beyond what is reserved are dropped and count mem_overrelease_total.
func (b *Budget) Release(n int64) {
	if b == nil || n == 0 {
		return
	}
	if n < 0 {
		b.Reserve(-n)
		return
	}
	for {
		used := b.used.Load()
		rel := min(n, used)
		if b.used.CompareAndSwap(used, used-rel) {
			if rel < n {
				b.overrel.Inc()
			}
			b.gauge.Add(-rel)
			return
		}
	}
}

// Over reports whether reserved state exceeds the limit.
func (b *Budget) Over() bool {
	return b != nil && b.limit > 0 && b.used.Load() > b.limit
}

// Limit returns the configured byte limit (0 when unbudgeted).
func (b *Budget) Limit() int64 {
	if b == nil {
		return 0
	}
	return b.limit
}

// Inflight returns the currently reserved bytes.
func (b *Budget) Inflight() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

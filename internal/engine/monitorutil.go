package engine

// opMonitor lets a blocking operator emit M1 self-monitoring events while
// it absorbs input. The fragment driver's own M1 emission is keyed to
// *produced* tuples, so a hash join's build phase or a hash aggregate's
// absorb phase would otherwise be invisible to the Diagnoser — and the
// machine could not be rebalanced until the operator started emitting.
//
// The operator's driver is the monitor's one caller.
type opMonitor struct {
	ctx *ExecContext

	count     int64
	lastCount int64
	// windowMs accumulates the cost charged for absorbed tuples since the
	// last emission, as the driver's meter measured it.
	windowMs float64
}

// tickN records n absorbed tuples that cost chargedMs, emitting an M1 event
// whenever the MonitorEvery window fills. Emission boundaries, per-event
// intervals, and cost attribution are identical to n sequential per-tuple
// ticks with the batch's charges applied up front — the serial cadence —
// because absorb batches are clamped to the MonitorEvery window (at most
// one boundary crossing per call).
func (m *opMonitor) tickN(n int, chargedMs float64) {
	if m.ctx.Monitor == nil || m.ctx.MonitorEvery <= 0 || n <= 0 {
		return
	}
	every := int64(m.ctx.MonitorEvery)
	m.windowMs += chargedMs
	m.count += int64(n)
	if m.count-m.lastCount < every {
		return
	}
	produced := m.lastCount + every
	m.ctx.Monitor.EmitM1(M1Event{
		Fragment:       m.ctx.Fragment,
		Instance:       m.ctx.Instance,
		Node:           m.ctx.Node.ID(),
		CostPerTupleMs: m.windowMs / float64(every),
		Selectivity:    1,
		Produced:       produced,
	})
	m.lastCount = produced
	m.windowMs = 0
}

package core

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/engine"
	"repro/internal/testenv"
	"repro/internal/vtime"
)

func testBus() *bus.Bus {
	return bus.New(vtime.NewClock(time.Microsecond), nil)
}

// costCollector gathers MED notifications.
type costCollector struct {
	mu   sync.Mutex
	seen []CostNotification
}

func (c *costCollector) handler(n bus.Notification) {
	if cn, ok := n.Payload.(CostNotification); ok {
		c.mu.Lock()
		c.seen = append(c.seen, cn)
		c.mu.Unlock()
	}
}

func (c *costCollector) wait(t *testing.T, n int) []CostNotification {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		if len(c.seen) >= n {
			out := append([]CostNotification(nil), c.seen...)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		if time.Now().After(deadline) {
			c.mu.Lock()
			defer c.mu.Unlock()
			t.Fatalf("got %d notifications, want ≥%d", len(c.seen), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func (c *costCollector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.seen)
}

func emitM1(a *MonitorAdapter, frag string, inst int, cost float64) {
	a.EmitM1(engine.M1Event{Fragment: frag, Instance: inst, Node: a.Node, CostPerTupleMs: cost, Selectivity: 1})
}

func TestMEDFirstNotificationAfterMinEvents(t *testing.T) {
	b := testBus()
	defer b.Close()
	med := NewMED(nil, b, "ws0", DefaultMEDConfig())
	defer med.Stop()
	col := &costCollector{}
	b.Subscribe("test", "coord", TopicMED, col.handler)
	a := &MonitorAdapter{Bus: b, Node: "ws0"}

	emitM1(a, "F2", 0, 10)
	emitM1(a, "F2", 0, 10)
	time.Sleep(20 * time.Millisecond)
	if col.count() != 0 {
		t.Fatal("notified before MinEvents")
	}
	emitM1(a, "F2", 0, 10)
	got := col.wait(t, 1)
	if got[0].Fragment != "F2" || got[0].Instance != 0 || math.Abs(got[0].AvgCostMs-10) > 1e-9 {
		t.Fatalf("notification = %+v", got[0])
	}
}

func TestMEDThresholdFiltersSmallChanges(t *testing.T) {
	b := testBus()
	defer b.Close()
	med := NewMED(nil, b, "ws0", MEDConfig{Window: 25, ThresM: 0.2, MinEvents: 3})
	defer med.Stop()
	col := &costCollector{}
	b.Subscribe("test", "coord", TopicMED, col.handler)
	a := &MonitorAdapter{Bus: b, Node: "ws0"}

	for i := 0; i < 20; i++ {
		emitM1(a, "F2", 0, 10+0.01*float64(i)) // ~stable cost
	}
	col.wait(t, 1)
	time.Sleep(20 * time.Millisecond)
	first := col.count()
	if first != 1 {
		t.Fatalf("stable costs produced %d notifications, want exactly 1", first)
	}
	// A 10x jump must re-notify once the window average moves ≥20%.
	for i := 0; i < 25; i++ {
		emitM1(a, "F2", 0, 100)
	}
	if got := col.wait(t, 2); len(got) < 2 {
		t.Fatal("big change not notified")
	}
	// The second notification lands before the MED has seen every event
	// of the burst: wait for all 45 before reading the counters.
	raw, notif := med.Stats()
	for deadline := time.Now().Add(5 * time.Second); raw != 45 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		raw, notif = med.Stats()
	}
	if raw != 45 {
		t.Fatalf("raw = %d, want 45", raw)
	}
	if notif < 2 || notif > 10 {
		t.Fatalf("notifications = %d; filtering broken", notif)
	}
}

func TestMEDGroupsByOperator(t *testing.T) {
	b := testBus()
	defer b.Close()
	med := NewMED(nil, b, "ws0", MEDConfig{Window: 5, ThresM: 0.2, MinEvents: 1})
	defer med.Stop()
	col := &costCollector{}
	b.Subscribe("test", "coord", TopicMED, col.handler)
	a := &MonitorAdapter{Bus: b, Node: "ws0"}

	emitM1(a, "F2", 0, 10)
	emitM1(a, "F2", 1, 50)
	got := col.wait(t, 2)
	keys := map[string]bool{}
	for _, n := range got {
		keys[n.Key] = true
	}
	if !keys["m1:F2#0"] || !keys["m1:F2#1"] {
		t.Fatalf("grouping keys = %v", keys)
	}
}

func TestMEDM2PerTupleAndSameNode(t *testing.T) {
	b := testBus()
	defer b.Close()
	med := NewMED(nil, b, "data1", MEDConfig{Window: 5, ThresM: 0.2, MinEvents: 1})
	defer med.Stop()
	col := &costCollector{}
	b.Subscribe("test", "coord", TopicMED, col.handler)
	a := &MonitorAdapter{Bus: b, Node: "data1"}

	a.EmitM2(engine.M2Event{
		Exchange: "E1", Fragment: "F1", Instance: 0, Node: "data1",
		ConsumerFragment: "F2", ConsumerInstance: 1, ConsumerNode: "ws1",
		SendCostMs: 50, TupleCount: 50,
	})
	got := col.wait(t, 1)
	if !got[0].IsComm || math.Abs(got[0].AvgCostMs-1) > 1e-9 {
		t.Fatalf("m2 notification = %+v", got[0])
	}
	if got[0].SameNode {
		t.Fatal("cross-node send flagged SameNode")
	}
	a.EmitM2(engine.M2Event{
		Exchange: "E1", Fragment: "F1", Instance: 0, Node: "data1",
		ConsumerFragment: "F2", ConsumerInstance: 0, ConsumerNode: "data1",
		SendCostMs: 0, TupleCount: 10,
	})
	got = col.wait(t, 2)
	if !got[1].SameNode {
		t.Fatal("co-located send not flagged SameNode")
	}
	// Zero-tuple M2 events are ignored.
	a.EmitM2(engine.M2Event{Exchange: "E1", TupleCount: 0})
	time.Sleep(10 * time.Millisecond)
	if col.count() != 2 {
		t.Fatal("zero-tuple event produced a notification")
	}
}

func TestMEDWindowSlides(t *testing.T) {
	b := testBus()
	defer b.Close()
	med := NewMED(nil, b, "ws0", MEDConfig{Window: 4, ThresM: 0.2, MinEvents: 3})
	defer med.Stop()
	col := &costCollector{}
	b.Subscribe("test", "coord", TopicMED, col.handler)
	a := &MonitorAdapter{Bus: b, Node: "ws0"}

	// Old cheap values must age out of the window so the average converges
	// to the new cost.
	for i := 0; i < 3; i++ {
		emitM1(a, "F2", 0, 10)
	}
	for i := 0; i < 12; i++ {
		emitM1(a, "F2", 0, 100)
	}
	got := col.wait(t, 2)
	last := got[len(got)-1]
	if math.Abs(last.AvgCostMs-100) > 1e-6 {
		t.Fatalf("window did not slide: final avg %v, want 100", last.AvgCostMs)
	}
}

func TestTrimmedMean(t *testing.T) {
	tests := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{2, 4}, 3},
		{[]float64{1, 10, 100}, 10},          // min and max discarded
		{[]float64{0, 10, 10, 10, 1000}, 10}, // outliers discarded
		// Duplicate extremes: only ONE occurrence of min and of max is
		// discarded; the remaining copies stay in the average.
		{[]float64{1, 1, 10, 100, 100}, 37}, // (1+10+100)/3
		{[]float64{5, 5, 5, 9}, 5},          // (5+5)/2 after dropping one 5 and the 9
		{[]float64{0, 0, 0, 12}, 0},         // (0+0)/2
		{[]float64{7, 7, 7}, 7},             // all equal: the value itself
		{[]float64{0, 0, 0, 0}, 0},          // all equal at zero
		{[]float64{-4, -4, -1, -10}, -4},    // negatives: (-4-4)/2
		// Huge duplicate extremes must not cancel to garbage: one 9e15 stays.
		{[]float64{9e15, 3, 3, 3, 9e15}, 3e15 + 2},
	}
	for _, tc := range tests {
		got := trimmedMean(tc.in)
		if math.Abs(got-tc.want) > math.Abs(tc.want)*1e-12+1e-9 {
			t.Errorf("trimmedMean(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	// Regression: the former sum-minus-extremes formula could return a
	// (meaningless) tiny negative for non-negative inputs through float
	// cancellation. Index-based discarding keeps the result in range.
	vals := []float64{1e16, 1e-3, 1e-3, 1e16}
	if got := trimmedMean(vals); got < 1e-3 || got > 1e16 {
		t.Errorf("trimmedMean(%v) = %v, out of input range", vals, got)
	}
}

func TestMEDMinEventsClampedToWindow(t *testing.T) {
	b := testBus()
	defer b.Close()
	// MinEvents above the window used to make the group unreachable: the
	// window holds at most Window values, so len(values) < MinEvents held
	// forever. The constructor now clamps it.
	med := NewMED(nil, b, "ws0", MEDConfig{Window: 2, ThresM: 0.2, MinEvents: 10})
	defer med.Stop()
	col := &costCollector{}
	b.Subscribe("test", "coord", TopicMED, col.handler)
	a := &MonitorAdapter{Bus: b, Node: "ws0"}

	emitM1(a, "F2", 0, 10)
	emitM1(a, "F2", 0, 10)
	got := col.wait(t, 1)
	if math.Abs(got[0].AvgCostMs-10) > 1e-9 {
		t.Fatalf("avg = %v, want 10", got[0].AvgCostMs)
	}
}

func TestMEDSmallMinEvents(t *testing.T) {
	// MinEvents below the 3 needed for the min/max discard must still work:
	// the average over 1 or 2 values is the plain mean.
	for _, minEvents := range []int{1, 2} {
		b := testBus()
		med := NewMED(nil, b, "ws0", MEDConfig{Window: 25, ThresM: 0.2, MinEvents: minEvents})
		col := &costCollector{}
		b.Subscribe("test", "coord", TopicMED, col.handler)
		a := &MonitorAdapter{Bus: b, Node: "ws0"}

		for i := 0; i < minEvents; i++ {
			emitM1(a, "F2", 0, 8)
		}
		got := col.wait(t, 1)
		if math.Abs(got[0].AvgCostMs-8) > 1e-9 {
			t.Errorf("MinEvents=%d: avg = %v, want 8", minEvents, got[0].AvgCostMs)
		}
		med.Stop()
		b.Close()
	}
}

// TestMEDObserveAllocsPerEvent bounds the raw-event hop's group lookup: once
// a group has fired and its average holds, an M1 or M2 event that does not
// fire allocates nothing but the window's amortised slide.
func TestMEDObserveAllocsPerEvent(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	b := testBus()
	defer b.Close()
	m := NewMED(nil, b, "ws0", DefaultMEDConfig())
	defer m.Stop()
	events := map[string]bus.Notification{
		"m1": {Payload: RawEvent{M1: &engine.M1Event{Fragment: "f2", Instance: 1, Node: "ws0", CostPerTupleMs: 3, Selectivity: 1}}},
		"m2": {Payload: RawEvent{M2: &engine.M2Event{Fragment: "f1", Instance: 0, Node: "ws0",
			ConsumerFragment: "f2", ConsumerInstance: 1, ConsumerNode: "ws1", SendCostMs: 8, TupleCount: 4}}},
	}
	for kind, ev := range events {
		for i := 0; i < 2*DefaultMEDConfig().Window; i++ { // fill the window; the group fires once
			m.onRaw(ev)
		}
		_, before := m.Stats()
		if got := testing.AllocsPerRun(1000, func() { m.onRaw(ev) }); got >= 0.1 {
			t.Errorf("%s: onRaw allocates %.3f per event, want < 0.1", kind, got)
		}
		if _, after := m.Stats(); after != before {
			t.Fatalf("%s: a steady group fired %d times while measured", kind, after-before)
		}
	}
}

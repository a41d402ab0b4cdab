package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bus"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/vtime"
)

// MonitorAdapter implements engine.MonitorSink by publishing raw events to
// the node's raw topic, from which the local MonitoringEventDetector reads.
type MonitorAdapter struct {
	Bus  *bus.Bus
	Node simnet.NodeID
}

// RawEvent wraps one engine monitoring event on the bus.
type RawEvent struct {
	M1 *engine.M1Event
	M2 *engine.M2Event
}

// EmitM1 implements engine.MonitorSink.
func (a *MonitorAdapter) EmitM1(e engine.M1Event) {
	a.Bus.Publish("engine", a.Node, bus.Topic(TopicRawPrefix+string(a.Node)), RawEvent{M1: &e})
}

// EmitM2 implements engine.MonitorSink.
func (a *MonitorAdapter) EmitM2(e engine.M2Event) {
	a.Bus.Publish("engine", a.Node, bus.Topic(TopicRawPrefix+string(a.Node)), RawEvent{M2: &e})
}

// MEDConfig tunes the MonitoringEventDetector. Defaults follow the paper's
// default configuration (§3.1).
type MEDConfig struct {
	// Window is the number of events the running average covers (paper
	// default: the last 25 events).
	Window int
	// ThresM is the relative change of the windowed average required
	// before subscribed Diagnosers are notified (paper default: 20%).
	ThresM float64
	// MinEvents is the minimum number of events per group before the
	// first notification; with at least 3, the min/max discard is
	// meaningful.
	MinEvents int
}

// DefaultMEDConfig returns the paper's default configuration.
func DefaultMEDConfig() MEDConfig {
	return MEDConfig{Window: 25, ThresM: 0.20, MinEvents: 3}
}

// MonitoringEventDetector collects raw monitoring events from the local
// query engine, groups them (M1 by reporting operator, M2 by concatenated
// producer and recipient identifiers), computes a running average over a
// window discarding the minimum and maximum values, and notifies subscribed
// Diagnosers when the average changes by at least thresM (paper §3.1).
type MonitoringEventDetector struct {
	node simnet.NodeID
	bus  *bus.Bus
	cfg  MEDConfig

	mu     sync.Mutex
	groups map[groupKey]*window
	sub    *bus.Subscription

	stopOnce sync.Once

	// Instance-local counters (the Stats compatibility view) and the
	// process-wide registry aggregates they mirror into.
	rawSeen  obs.Counter
	notified obs.Counter
	obsRaw   *obs.Counter
	obsNotif *obs.Counter
	timeline *obs.Timeline
	// clock stamps timeline events; SetClock installs it (nil stamps 0).
	clock atomic.Pointer[vtime.Clock]
}

// groupKey identifies a MED group: an M1 group by its reporting subplan
// clone, an M2 group by its producer and recipient clones. Being a
// comparable struct, it finds its group without formatting a string per
// event; String formats it only when the group fires.
type groupKey struct {
	comm             bool
	fragment         string
	instance         int
	consumerFragment string
	consumerInstance int
}

// String renders the key as CostNotification.Key reads it.
func (k groupKey) String() string {
	if k.comm {
		return fmt.Sprintf("m2:%s#%d->%s#%d", k.fragment, k.instance, k.consumerFragment, k.consumerInstance)
	}
	return fmt.Sprintf("m1:%s#%d", k.fragment, k.instance)
}

// window is the per-group running state.
type window struct {
	values       []float64
	lastNotified float64
	everNotified bool
}

// NewMED builds and subscribes the detector for one node. The subscription
// is scoped to ctx: when the owning query's context ends, the detector's
// delivery goroutine ends with it. A nil ctx leaves the lifetime to Stop.
func NewMED(ctx context.Context, b *bus.Bus, node simnet.NodeID, cfg MEDConfig) *MonitoringEventDetector {
	if cfg.Window <= 0 {
		cfg.Window = 25
	}
	if cfg.MinEvents <= 0 {
		cfg.MinEvents = 3
	}
	// A MinEvents above the window can never be reached (the window is
	// trimmed to cfg.Window values), which would silence the group forever.
	if cfg.MinEvents > cfg.Window {
		cfg.MinEvents = cfg.Window
	}
	o := obs.Default()
	m := &MonitoringEventDetector{
		node:     node,
		bus:      b,
		cfg:      cfg,
		groups:   make(map[groupKey]*window),
		obsRaw:   o.Counter(obs.MMEDRawEvents),
		obsNotif: o.Counter(obs.MMEDNotifications),
		timeline: o.Timeline(),
	}
	m.sub = b.SubscribeContext(ctx, "med@"+string(node), node, bus.Topic(TopicRawPrefix+string(node)), m.onRaw)
	return m
}

// SetClock sets the clock that stamps the detector's timeline events. Safe
// against concurrently recorded events.
func (m *MonitoringEventDetector) SetClock(c *vtime.Clock) { m.clock.Store(c) }

// stampMs reads a component's timeline clock: paper milliseconds, or 0 if
// none was set.
func stampMs(c *atomic.Pointer[vtime.Clock]) float64 {
	if clk := c.Load(); clk != nil {
		return clk.NowMs()
	}
	return 0
}

// Stop cancels the subscription. Idempotent and safe from multiple
// goroutines.
func (m *MonitoringEventDetector) Stop() {
	m.stopOnce.Do(func() { m.sub.Cancel() })
}

// Stats reports how many raw events arrived and how many notifications were
// forwarded; the paper's overhead analysis shows the detector filtering
// 100–300 raw events down to about 10 notifications.
func (m *MonitoringEventDetector) Stats() (raw, notifications int64) {
	return m.rawSeen.Value(), m.notified.Value()
}

func (m *MonitoringEventDetector) onRaw(n bus.Notification) {
	ev, ok := n.Payload.(RawEvent)
	if !ok {
		return
	}
	switch {
	case ev.M1 != nil:
		key := groupKey{fragment: ev.M1.Fragment, instance: ev.M1.Instance}
		if avg, fire := m.observe(key, ev.M1.CostPerTupleMs); fire {
			m.publish(CostNotification{
				Key:         key.String(),
				Fragment:    ev.M1.Fragment,
				Instance:    ev.M1.Instance,
				AvgCostMs:   avg,
				WaitMs:      ev.M1.WaitPerTupleMs,
				Selectivity: ev.M1.Selectivity,
			})
		}
	case ev.M2 != nil:
		if ev.M2.TupleCount == 0 {
			return
		}
		key := groupKey{comm: true, fragment: ev.M2.Fragment, instance: ev.M2.Instance,
			consumerFragment: ev.M2.ConsumerFragment, consumerInstance: ev.M2.ConsumerInstance}
		perTuple := ev.M2.SendCostMs / float64(ev.M2.TupleCount)
		if avg, fire := m.observe(key, perTuple); fire {
			m.publish(CostNotification{
				Key:              key.String(),
				IsComm:           true,
				AvgCostMs:        avg,
				ProducerFragment: ev.M2.Fragment,
				ProducerInstance: ev.M2.Instance,
				ConsumerFragment: ev.M2.ConsumerFragment,
				ConsumerInstance: ev.M2.ConsumerInstance,
				SameNode:         ev.M2.Node == ev.M2.ConsumerNode,
			})
		}
	}
}

// observe folds one value into its group window and decides whether to
// notify.
func (m *MonitoringEventDetector) observe(key groupKey, value float64) (avg float64, fire bool) {
	m.rawSeen.Inc()
	m.obsRaw.Inc()
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.groups[key]
	if w == nil {
		w = &window{}
		m.groups[key] = w
	}
	w.values = append(w.values, value)
	if len(w.values) > m.cfg.Window {
		w.values = w.values[len(w.values)-m.cfg.Window:]
	}
	if len(w.values) < m.cfg.MinEvents {
		return 0, false
	}
	avg = trimmedMean(w.values)
	switch {
	case !w.everNotified:
		fire = true
	case w.lastNotified == 0:
		fire = avg != 0
	default:
		rel := (avg - w.lastNotified) / w.lastNotified
		if rel < 0 {
			rel = -rel
		}
		fire = rel >= m.cfg.ThresM
	}
	if fire {
		w.everNotified = true
		w.lastNotified = avg
		m.notified.Inc()
		m.obsNotif.Inc()
	}
	return avg, fire
}

func (m *MonitoringEventDetector) publish(n CostNotification) {
	fragment := n.Fragment
	if n.IsComm {
		fragment = n.ProducerFragment
	}
	m.timeline.Append(obs.Event{
		Kind:      obs.KindMEDNotify,
		AtMs:      stampMs(&m.clock),
		Node:      string(m.node),
		Fragment:  fragment,
		Key:       n.Key,
		AvgCostMs: n.AvgCostMs,
	})
	m.bus.Publish("med@"+string(m.node), m.node, TopicMED, n)
}

// trimmedMean averages the values, discarding exactly one occurrence of the
// minimum and one of the maximum when at least three values are present
// (paper §3.1). The discarded entries are excluded by index rather than by
// subtracting min and max from the total, so duplicate extremes are kept
// (only one copy of each is dropped) and the result cannot drift negative
// through floating-point cancellation when the extremes dominate the sum.
func trimmedMean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	if len(values) < 3 {
		sum := 0.0
		for _, v := range values {
			sum += v
		}
		return sum / float64(len(values))
	}
	minIdx, maxIdx := 0, 0
	for i, v := range values {
		if v < values[minIdx] {
			minIdx = i
		}
		if v > values[maxIdx] {
			maxIdx = i
		}
	}
	if minIdx == maxIdx {
		// All values equal: the trimmed mean is that value.
		return values[minIdx]
	}
	sum := 0.0
	for i, v := range values {
		if i == minIdx || i == maxIdx {
			continue
		}
		sum += v
	}
	return sum / float64(len(values)-2)
}

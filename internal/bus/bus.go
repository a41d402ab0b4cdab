// Package bus implements the asynchronous publish/subscribe notification
// substrate that the adaptivity components of the AQP architecture use to
// communicate (paper §2): self-monitoring operators publish raw events, each
// MonitoringEventDetector subscribes to its local engine's topic and
// publishes filtered notifications, the Diagnoser subscribes to detectors
// and publishes proposed redistributions, and the Responder subscribes to
// the Diagnoser.
//
// Delivery is asynchronous: every subscription owns a goroutine and a
// bounded ring queue, so publishers never block on slow subscribers in the
// default configuration and per-subscription ordering is preserved. When a
// queue fills, the configured Overflow policy decides whether the oldest
// notification is dropped (counted in Stats.Dropped — monitoring traffic is
// advisory, and a fresher reading supersedes a stale one) or the publisher
// blocks until the subscriber catches up. When the bus is built over a
// simulated network, deliveries between different nodes are charged the
// modelled link cost, so notification traffic competes for the same fabric
// as data buffers — which is what keeps the paper honest about "no flooding
// of messages".
package bus

import (
	"context"
	"sync"

	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/vtime"
)

// Topic names a notification channel, e.g. "raw.ws0" or "diagnosis".
type Topic string

// Notification is one published message.
type Notification struct {
	Topic Topic
	// From identifies the publishing component; FromNode the machine it
	// runs on (used to charge cross-node delivery cost).
	From     string
	FromNode simnet.NodeID
	// AtMs is the publication time in paper milliseconds.
	AtMs    float64
	Payload any
}

// Handler consumes notifications. Handlers run on the subscription's
// delivery goroutine; a slow handler delays only its own subscription.
type Handler func(Notification)

// notificationWireSize approximates the on-the-wire size of a notification
// in bytes; the paper ships them as SOAP messages, so small payloads still
// cost a frame.
const notificationWireSize = 512

// Overflow selects what a full subscription queue does with a new
// notification.
type Overflow uint8

const (
	// OverflowDropOldest evicts the oldest queued notification to make
	// room, counting the drop in Stats.Dropped. This is the default:
	// monitoring events are periodic readings, so under pressure the
	// freshest data wins and memory stays bounded.
	OverflowDropOldest Overflow = iota
	// OverflowBlock makes the publisher wait for queue space, trading
	// publisher progress for lossless delivery.
	OverflowBlock
)

// DefaultQueueCap is the per-subscription queue bound used when Options
// leaves QueueCap unset. Sized well above the AQP components' steady-state
// backlog (a MED aggregates its raw feed every period; Diagnoser and
// Responder see a few notifications per adaptation), so drops only occur
// under genuine overload.
const DefaultQueueCap = 1024

// Options configures a Bus.
type Options struct {
	// QueueCap bounds each subscription's queue; <= 0 selects
	// DefaultQueueCap.
	QueueCap int
	// Overflow is the full-queue policy for every subscription.
	Overflow Overflow
}

// Bus routes notifications from publishers to subscribers.
type Bus struct {
	clock *vtime.Clock
	net   *simnet.Network // may be nil: delivery is then free
	opts  Options

	mu     sync.Mutex
	subs   map[Topic][]*Subscription
	closed bool

	// statsMu guards the per-topic counter maps separately from the
	// subscription table, so hot publishers and StatsSnapshot readers never
	// contend with Subscribe/Cancel. The process-wide aggregates live in the
	// obs registry; the maps keep the per-topic breakdown the Overheads
	// experiment reports.
	statsMu sync.Mutex
	stats   Stats

	// Registry-backed aggregate counters and the queue-depth distribution
	// (nil when instrumentation is disabled; all methods are nil-safe).
	obsPublished *obs.Counter
	obsDelivered *obs.Counter
	obsDropped   *obs.Counter
	obsDepth     *obs.Histogram
}

// Stats counts bus traffic; the Overheads experiment reports these to show
// the system is not flooded by messages. StatsSnapshot returns a deep copy;
// the process-wide aggregates are also mirrored into the obs registry as
// bus_published_total / bus_delivered_total / bus_dropped_total.
type Stats struct {
	Published map[Topic]int64
	Delivered int64
	// Dropped counts notifications evicted by OverflowDropOldest, per
	// topic. A non-zero count means some subscriber could not keep up with
	// its feed.
	Dropped map[Topic]int64
}

// New builds a bus with default options over the given clock. net may be
// nil, in which case deliveries are instantaneous (used by unit tests).
func New(clock *vtime.Clock, net *simnet.Network) *Bus {
	return NewWithOptions(clock, net, Options{})
}

// NewWithOptions builds a bus with an explicit queue bound and overflow
// policy.
func NewWithOptions(clock *vtime.Clock, net *simnet.Network, opts Options) *Bus {
	if opts.QueueCap <= 0 {
		opts.QueueCap = DefaultQueueCap
	}
	o := obs.Default()
	return &Bus{
		clock:        clock,
		net:          net,
		opts:         opts,
		subs:         make(map[Topic][]*Subscription),
		stats:        Stats{Published: make(map[Topic]int64), Dropped: make(map[Topic]int64)},
		obsPublished: o.Counter(obs.MBusPublished),
		obsDelivered: o.Counter(obs.MBusDelivered),
		obsDropped:   o.Counter(obs.MBusDropped),
		obsDepth:     o.Histogram(obs.MBusQueueDepth, obs.DefBucketsSize),
	}
}

// Subscription is one subscriber's registration on one topic. Its queue is
// a ring that grows geometrically up to the bus's bound, so an idle
// subscription costs a few words, not a full-capacity buffer.
type Subscription struct {
	bus   *Bus
	topic Topic
	name  string
	node  simnet.NodeID
	h     Handler

	mu     sync.Mutex
	cond   *sync.Cond
	ring   []Notification
	head   int
	count  int
	closed bool
	done   chan struct{}
}

// Subscribe registers handler h, running on behalf of the named component on
// the given node, for all notifications published to topic. The returned
// Subscription must be Cancelled (or the Bus Closed) to release its
// goroutine.
func (b *Bus) Subscribe(name string, node simnet.NodeID, topic Topic, h Handler) *Subscription {
	s := &Subscription{bus: b, topic: topic, name: name, node: node, h: h, done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		close(s.done)
		s.closed = true
		return s
	}
	// Append only: Publish may be iterating the old slice (see Publish).
	b.subs[topic] = append(b.subs[topic], s)
	b.mu.Unlock()
	go s.deliverLoop()
	return s
}

// SubscribeContext is Subscribe tied to a context: when ctx is done the
// subscription cancels itself and its delivery goroutine exits after
// draining. A nil ctx behaves like plain Subscribe. This is how a
// QuerySession scopes its AQP components' subscriptions to the query's
// lifetime.
func (b *Bus) SubscribeContext(ctx context.Context, name string, node simnet.NodeID, topic Topic, h Handler) *Subscription {
	s := b.Subscribe(name, node, topic, h)
	if ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				s.Cancel()
			case <-s.done:
			}
		}()
	}
	return s
}

// Publish sends payload to every subscription on topic. Under the default
// drop-oldest policy it never blocks on subscribers; under OverflowBlock it
// waits for space in each full queue.
//
// Publish iterates the topic's subscriber slice as read under b.mu, without
// copying it, which the subscription table's copy-on-write rule makes safe:
// Subscribe only appends past the slice's old length, so it never writes an
// element a reader already holds; Cancel builds a fresh array instead of
// shifting the old one; and Close replaces the whole map.
func (b *Bus) Publish(from string, fromNode simnet.NodeID, topic Topic, payload any) {
	n := Notification{
		Topic:    topic,
		From:     from,
		FromNode: fromNode,
		AtMs:     b.clock.NowMs(),
		Payload:  payload,
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	targets := b.subs[topic]
	b.mu.Unlock()
	b.statsMu.Lock()
	b.stats.Published[topic]++
	b.statsMu.Unlock()
	b.obsPublished.Inc()
	for _, s := range targets {
		s.enqueue(n)
	}
}

// StatsSnapshot returns a deep copy of the traffic counters: the maps are
// cloned under the stats lock, so the caller can read them freely while
// publishers keep running.
func (b *Bus) StatsSnapshot() Stats {
	b.statsMu.Lock()
	defer b.statsMu.Unlock()
	out := Stats{
		Published: make(map[Topic]int64, len(b.stats.Published)),
		Delivered: b.stats.Delivered,
		Dropped:   make(map[Topic]int64, len(b.stats.Dropped)),
	}
	for t, c := range b.stats.Published {
		out.Published[t] = c
	}
	for t, c := range b.stats.Dropped {
		out.Dropped[t] = c
	}
	return out
}

// Close cancels every subscription and rejects further publishes. It does
// not wait for in-flight deliveries; use Subscription.Drain where a test
// needs that.
func (b *Bus) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	var all []*Subscription
	for _, subs := range b.subs {
		all = append(all, subs...)
	}
	b.subs = make(map[Topic][]*Subscription)
	b.mu.Unlock()
	for _, s := range all {
		s.stop()
	}
}

func (b *Bus) countDelivered() {
	b.statsMu.Lock()
	b.stats.Delivered++
	b.statsMu.Unlock()
	b.obsDelivered.Inc()
}

func (b *Bus) countDropped(topic Topic) {
	b.statsMu.Lock()
	b.stats.Dropped[topic]++
	b.statsMu.Unlock()
	b.obsDropped.Inc()
}

// enqueue appends n to the subscription's ring, applying the bus's
// overflow policy when the ring is at capacity.
func (s *Subscription) enqueue(n Notification) {
	dropped := false
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	switch {
	case s.count < s.bus.opts.QueueCap:
		// Below the bound: room exists (the ring may still need to grow).
	case s.bus.opts.Overflow == OverflowBlock:
		for s.count >= s.bus.opts.QueueCap && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
	default: // OverflowDropOldest
		s.ring[s.head] = Notification{}
		s.head = (s.head + 1) % len(s.ring)
		s.count--
		dropped = true
	}
	s.pushLocked(n)
	depth := s.count
	s.cond.Broadcast()
	s.mu.Unlock()
	if dropped {
		s.bus.countDropped(s.topic)
	}
	s.bus.obsDepth.Observe(float64(depth))
}

// pushLocked appends to the ring, growing it geometrically up to the bound.
// Callers hold s.mu and have already ensured capacity exists under the
// policy.
func (s *Subscription) pushLocked(n Notification) {
	if s.count == len(s.ring) {
		newCap := len(s.ring) * 2
		if newCap == 0 {
			newCap = 16
		}
		if newCap > s.bus.opts.QueueCap {
			newCap = s.bus.opts.QueueCap
		}
		newRing := make([]Notification, newCap)
		for i := 0; i < s.count; i++ {
			newRing[i] = s.ring[(s.head+i)%len(s.ring)]
		}
		s.ring = newRing
		s.head = 0
	}
	s.ring[(s.head+s.count)%len(s.ring)] = n
	s.count++
}

func (s *Subscription) deliverLoop() {
	defer close(s.done)
	for {
		s.mu.Lock()
		for s.count == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed && s.count == 0 {
			s.mu.Unlock()
			return
		}
		n := s.ring[s.head]
		s.ring[s.head] = Notification{}
		s.head = (s.head + 1) % len(s.ring)
		s.count--
		// Wake publishers blocked on a full queue (OverflowBlock).
		s.cond.Broadcast()
		s.mu.Unlock()

		// Charge the cross-node delivery cost on the receiving side, so a
		// remote notification arrives later than a local one.
		if s.bus.net != nil && n.FromNode != "" && s.node != "" && n.FromNode != s.node {
			s.bus.net.Link(n.FromNode, s.node).Transmit(s.bus.clock, notificationWireSize)
		}
		s.h(n)
		s.bus.countDelivered()
	}
}

// Cancel removes the subscription; queued notifications are still delivered
// before the goroutine exits.
func (s *Subscription) Cancel() {
	s.bus.mu.Lock()
	subs := s.bus.subs[s.topic]
	for i, other := range subs {
		if other == s {
			// A fresh array: Publish may be iterating the old one.
			s.bus.subs[s.topic] = append(subs[:i:i], subs[i+1:]...)
			break
		}
	}
	s.bus.mu.Unlock()
	s.stop()
}

// Drain blocks until the subscription's goroutine has delivered everything
// and exited. Call Cancel (or Bus.Close) first.
func (s *Subscription) Drain() { <-s.done }

func (s *Subscription) stop() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

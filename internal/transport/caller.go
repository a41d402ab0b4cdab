package transport

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/simnet"
)

// Caller gives request/response semantics over the one-way message
// transport: a request carries a RequestID and a reply-to address, and the
// KindReply with that id resolves the pending call. It is the one
// request/reply client of the tree — the Responder's control RPCs and the
// coordinator's deploy/teardown RPCs both go through it. Request ids grow
// for the Caller's whole life, so a reply that arrives late (its call timed
// out, or belonged to an earlier query) or carries a foreign id finds no
// pending call and is dropped.
type Caller struct {
	tr      Transport
	node    simnet.NodeID
	service string
	timeout time.Duration

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *Ctrl

	latency *obs.Histogram
	errors  *obs.Counter
}

// NewCaller registers the reply endpoint (node, service) on tr. Each call
// waits at most timeout for its reply.
func NewCaller(tr Transport, node simnet.NodeID, service string, timeout time.Duration) *Caller {
	o := obs.Default()
	c := &Caller{
		tr:      tr,
		node:    node,
		service: service,
		timeout: timeout,
		pending: make(map[uint64]chan *Ctrl),
		latency: o.Histogram(obs.MRPCLatency, obs.DefBucketsLatencyMs),
		errors:  o.Counter(obs.MRPCErrors),
	}
	tr.Register(node, service, c.onReply)
	return c
}

// Close unregisters the reply endpoint.
func (c *Caller) Close() {
	c.tr.Unregister(c.node, c.service)
}

func (c *Caller) onReply(_ simnet.NodeID, msg *Message) {
	if msg.Kind != KindReply || msg.Ctrl == nil {
		return
	}
	if ch := c.take(msg.Ctrl.RequestID); ch != nil {
		ch <- msg.Ctrl
	}
}

// take removes and returns the pending call with the given id (nil if none).
func (c *Caller) take(id uint64) chan *Ctrl {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := c.pending[id]
	delete(c.pending, id)
	return ch
}

// Call sends msg to a service and waits for its reply, the Caller's timeout,
// or ctx — whichever comes first. A canceled query must not leave an
// adaptation goroutine parked here for the full timeout. A nil ctx waits
// only on the timeout. The request's id and reply address are stamped on
// msg.Ctrl (created when the message has none).
func (c *Caller) Call(ctx context.Context, to simnet.NodeID, service string, msg *Message) (*Ctrl, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	begun := time.Now()
	defer func() { c.latency.Observe(float64(time.Since(begun)) / float64(time.Millisecond)) }()
	if msg.Ctrl == nil {
		msg.Ctrl = &Ctrl{}
	}
	what := msg.Kind.String()
	if msg.Kind == KindControl {
		what = msg.Ctrl.Op.String()
	}
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	ch := make(chan *Ctrl, 1)
	c.pending[id] = ch
	c.mu.Unlock()

	msg.Ctrl.RequestID = id
	msg.Ctrl.ReplyTo = c.node
	msg.Ctrl.ReplyService = c.service
	fail := func(err error) (*Ctrl, error) {
		c.take(id)
		c.errors.Inc()
		return nil, err
	}
	if _, err := c.tr.Send(c.node, to, service, msg); err != nil {
		return fail(qerr.Transport(fmt.Sprintf("%s to %s@%s", what, service, to), err))
	}
	select {
	case reply := <-ch:
		if !reply.OK && reply.Err != "" {
			c.errors.Inc()
			return reply, fmt.Errorf("transport: %s on %s@%s: %s", what, service, to, reply.Err)
		}
		return reply, nil
	case <-ctx.Done():
		return fail(qerr.FromContext(ctx))
	case <-time.After(c.timeout):
		return fail(qerr.Transport(fmt.Sprintf("%s on %s@%s", what, service, to),
			fmt.Errorf("transport: reply timed out after %v", c.timeout)))
	}
}

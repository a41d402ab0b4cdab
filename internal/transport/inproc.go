package transport

import (
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// InProc routes messages between services hosted in one process, charging
// the simulated network's link costs on the sender's goroutine — the same
// blocking-send behaviour the paper's exchange producers exhibit when
// shipping SOAP buffers, which is what the M2 monitoring events measure.
type InProc struct {
	net *simnet.Network

	mu        sync.RWMutex
	endpoints map[endpointKey]Handler

	obsSent *obs.Counter
}

type endpointKey struct {
	node    simnet.NodeID
	service string
}

// NewInProc builds an in-process transport over the simulated network.
func NewInProc(net *simnet.Network) *InProc {
	return &InProc{
		net:       net,
		endpoints: make(map[endpointKey]Handler),
		obsSent:   obs.Default().Counter(obs.Label(obs.MTransportMessages, "kind", "inproc")),
	}
}

// Register implements Transport.
func (t *InProc) Register(node simnet.NodeID, service string, h Handler) {
	t.mu.Lock()
	t.endpoints[endpointKey{node, service}] = h
	t.mu.Unlock()
}

// Unregister implements Transport.
func (t *InProc) Unregister(node simnet.NodeID, service string) {
	t.mu.Lock()
	delete(t.endpoints, endpointKey{node, service})
	t.mu.Unlock()
}

// Send implements Transport. The link cost is paid before the handler runs,
// so delivery order per (from,to) pair follows real time. The handler takes
// over msg's tuple buffer; a send that fails releases it.
func (t *InProc) Send(from, to simnet.NodeID, service string, msg *Message) (float64, error) {
	if n := t.net.Node(from); n != nil && !n.Alive() {
		msg.ReleaseSlots()
		return 0, &NodeDownError{Node: from}
	}
	if n := t.net.Node(to); n != nil && !n.Alive() {
		msg.ReleaseSlots()
		return 0, &NodeDownError{Node: to}
	}
	t.mu.RLock()
	h, ok := t.endpoints[endpointKey{to, service}]
	t.mu.RUnlock()
	if !ok {
		msg.ReleaseSlots()
		return 0, fmt.Errorf("transport: no endpoint %q on node %q", service, to)
	}
	cost := t.net.Link(from, to).Transmit(t.net.Clock(), msg.WireSize())
	t.obsSent.Inc()
	h(from, msg)
	return cost, nil
}

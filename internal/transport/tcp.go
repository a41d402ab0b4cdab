package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/simnet"
)

// TCP carries messages between real processes: each process hosts one node,
// listens on its own address, and dials peers lazily. Frames are a 4-byte
// big-endian length followed by the wire-encoded message plus routing
// header. Unlike InProc, no simulated link cost is charged — the real
// network provides the latency.
//
// The multi-process deployment in cmd/dqp-coordinator and cmd/dqp-evaluator
// uses this transport; the single-process experiments use InProc.
type TCP struct {
	local simnet.NodeID

	mu        sync.Mutex
	peers     map[simnet.NodeID]string // node -> address
	conns     map[simnet.NodeID]*tcpConn
	endpoints map[string]Handler
	listener  net.Listener
	accepted  []net.Conn
	closed    bool
	wg        sync.WaitGroup

	obsLocal   *obs.Counter
	obsRemote  *obs.Counter
	obsCorrupt *obs.Counter
}

type tcpConn struct {
	mu sync.Mutex // serialises writes
	c  net.Conn
	w  *bufio.Writer
}

// maxFrame bounds a frame to keep a corrupt peer from forcing huge
// allocations.
const maxFrame = 64 << 20

// NewTCP creates the transport for the local node, listening on listenAddr
// (e.g. ":7011"; an empty string disables listening, for send-only
// clients).
func NewTCP(local simnet.NodeID, listenAddr string) (*TCP, error) {
	t := &TCP{
		local:      local,
		peers:      make(map[simnet.NodeID]string),
		conns:      make(map[simnet.NodeID]*tcpConn),
		endpoints:  make(map[string]Handler),
		obsLocal:   obs.Default().Counter(obs.Label(obs.MTransportMessages, "kind", "local")),
		obsRemote:  obs.Default().Counter(obs.Label(obs.MTransportMessages, "kind", "remote")),
		obsCorrupt: obs.Default().Counter(obs.MTransportCorruptFrames),
	}
	if listenAddr != "" {
		ln, err := net.Listen("tcp", listenAddr)
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
		}
		t.listener = ln
		t.wg.Add(1)
		go t.acceptLoop(ln)
	}
	return t, nil
}

// Addr returns the listening address (useful with ":0").
func (t *TCP) Addr() string {
	if t.listener == nil {
		return ""
	}
	return t.listener.Addr().String()
}

// AddPeer registers the address of a remote node.
func (t *TCP) AddPeer(node simnet.NodeID, addr string) {
	t.mu.Lock()
	t.peers[node] = addr
	t.mu.Unlock()
}

// Register implements Transport.
func (t *TCP) Register(node simnet.NodeID, service string, h Handler) {
	if node != t.local {
		panic(fmt.Sprintf("transport: registering %q for remote node %q on %q", service, node, t.local))
	}
	t.mu.Lock()
	t.endpoints[service] = h
	t.mu.Unlock()
}

// Unregister implements Transport.
func (t *TCP) Unregister(node simnet.NodeID, service string) {
	t.mu.Lock()
	delete(t.endpoints, service)
	t.mu.Unlock()
}

// Send implements Transport. Local sends dispatch directly, and the handler
// takes over msg's tuple buffer; a remote send releases it once the frame
// holds the encoded tuples, and any failed send releases it.
func (t *TCP) Send(from, to simnet.NodeID, service string, msg *Message) (float64, error) {
	if to == t.local {
		t.mu.Lock()
		h := t.endpoints[service]
		t.mu.Unlock()
		if h == nil {
			msg.ReleaseSlots()
			return 0, fmt.Errorf("transport: no local endpoint %q", service)
		}
		t.obsLocal.Inc()
		h(from, msg)
		return 0, nil
	}
	conn, err := t.connTo(to)
	if err != nil {
		msg.ReleaseSlots()
		return 0, err
	}
	// Encode the length prefix, routing header and message into one pooled
	// frame buffer, the prefix filled in last; the bytes are fully flushed to
	// the bufio writer before the buffer is recycled, so nothing retains it.
	frame := relation.GetEncodeBuffer()
	defer func() { relation.PutEncodeBuffer(frame) }()
	frame = append(frame, 0, 0, 0, 0)
	frame = appendString(frame, service)
	frame = appendString(frame, string(from))
	frame = AppendMessage(frame, msg)
	msg.ReleaseSlots()
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))

	conn.mu.Lock()
	defer conn.mu.Unlock()
	if _, err := conn.w.Write(frame); err != nil {
		t.dropConn(to)
		return 0, err
	}
	if err := conn.w.Flush(); err != nil {
		t.dropConn(to)
		return 0, err
	}
	t.obsRemote.Inc()
	return 0, nil
}

func (t *TCP) connTo(node simnet.NodeID) (*tcpConn, error) {
	t.mu.Lock()
	if c, ok := t.conns[node]; ok {
		t.mu.Unlock()
		return c, nil
	}
	addr, ok := t.peers[node]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no address for node %q", node)
	}
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %q (%s): %w", node, addr, err)
	}
	c := &tcpConn{c: raw, w: bufio.NewWriter(raw)}
	t.mu.Lock()
	if t.closed {
		// A sender that outlived Close (a late ack) must not start a read
		// loop Close no longer waits for, nor cache a connection nobody
		// will close.
		t.mu.Unlock()
		_ = raw.Close()
		return nil, fmt.Errorf("transport: %q is closed", t.local)
	}
	if existing, ok := t.conns[node]; ok {
		t.mu.Unlock()
		_ = raw.Close()
		return existing, nil
	}
	t.conns[node] = c
	// Replies may come back on the same connection. Counted under mu, so
	// before Close — which marks closed under mu — can start waiting.
	t.wg.Add(1)
	t.mu.Unlock()
	go t.readLoop(raw)
	return c, nil
}

// evictConn removes conn from the dial cache if it is cached there (it may
// instead be an accepted inbound connection, which is never cached).
func (t *TCP) evictConn(conn net.Conn) {
	t.mu.Lock()
	for node, c := range t.conns {
		if c.c == conn {
			delete(t.conns, node)
			break
		}
	}
	t.mu.Unlock()
}

func (t *TCP) dropConn(node simnet.NodeID) {
	t.mu.Lock()
	if c, ok := t.conns[node]; ok {
		delete(t.conns, node)
		_ = c.c.Close()
	}
	t.mu.Unlock()
}

func (t *TCP) acceptLoop(ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = conn.Close()
			return
		}
		t.accepted = append(t.accepted, conn)
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	// A dead connection must leave the dial cache with it: when a peer
	// process exits, the first write to the stale socket can still succeed
	// silently (the RST arrives later), so waiting for a write error loses
	// messages. Evicting here makes the next Send re-dial the peer.
	defer t.evictConn(conn)
	t.receive(bufio.NewReader(conn), newReceiver())
}

// receive reads, decodes and dispatches one connection's frames until a read
// fails or a frame's length or routing header is malformed. A corrupt message
// is counted and dropped, and the connection stays up.
func (t *TCP) receive(r io.Reader, rx *receiver) {
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n == 0 || n > maxFrame {
			return
		}
		frame := rx.frame(int(n))
		if _, err := io.ReadFull(r, frame); err != nil {
			return
		}
		base := frameString(frame)
		d := decoder{b: frame, base: base, rx: rx}
		service := d.bytes()
		from := d.name()
		if d.err != nil {
			return
		}
		msg, err := decodeMessage(rx, &rx.arena, base, d.b)
		if err != nil {
			t.obsCorrupt.Inc()
			continue
		}
		t.mu.Lock()
		h := t.endpoints[string(service)]
		t.mu.Unlock()
		if h != nil {
			h(simnet.NodeID(from), msg)
		}
	}
}

// Receive-side chunk sizes and the intern bound, per connection.
const (
	// slabChunk is the size of a receive-slab chunk; a larger frame gets an
	// exact allocation of its own.
	slabChunk = 64 << 10
	// msgChunk is the Messages per chunk.
	msgChunk = 64
	// hdrChunk is the tuple headers per chunk: 24 KiB, under the runtime's
	// 32 KiB small-object threshold. A message announcing more tuples gets
	// a header slice of its own.
	hdrChunk = 1024
	// maxNames bounds a connection's intern table. Names are tagged with
	// their query, so a long-lived connection meets new ones with every
	// query: a full table is cleared rather than frozen, which keeps the
	// names of the queries running now interned while a peer still cannot
	// grow the table.
	maxNames = 64
	// maxNameLen is the longest name interned; a longer one is copied.
	maxNameLen = 256
)

// receiver is one TCP connection's decode state. It makes receiving
// allocate per connection rather than per message:
//   - each frame is read into the unused tail of a slab chunk, and bytes a
//     frame was read into are never written again, so decoded tuple strings
//     alias the frame instead of copying it (a corrupt frame's region is
//     abandoned, not rewound). A retained string keeps its whole chunk
//     alive, as a stored-scan block does;
//   - Messages and tuple-header slices are carved from chunks, and tuple
//     Values from the arena, none of which is ever reused;
//   - exchange, sender and other names are interned in a bounded table.
type receiver struct {
	arena relation.Arena
	slab  []byte
	msgs  []Message
	hdrs  []relation.Tuple
	names map[string]string
}

func newReceiver() *receiver {
	return &receiver{names: make(map[string]string, maxNames)}
}

// frame returns n bytes to read the next frame into.
func (rx *receiver) frame(n int) []byte {
	if n > slabChunk {
		return make([]byte, n)
	}
	if len(rx.slab) < n {
		rx.slab = make([]byte, slabChunk)
	}
	f := rx.slab[:n:n]
	rx.slab = rx.slab[n:]
	return f
}

// message returns a zero Message.
func (rx *receiver) message() *Message {
	if len(rx.msgs) == 0 {
		rx.msgs = make([]Message, msgChunk)
	}
	m := &rx.msgs[0]
	rx.msgs = rx.msgs[1:]
	return m
}

// headers returns an empty tuple slice of capacity c; appending past c
// reallocates instead of overwriting the next carving.
func (rx *receiver) headers(c int) []relation.Tuple {
	if c > hdrChunk {
		return make([]relation.Tuple, 0, c)
	}
	if len(rx.hdrs) < c {
		rx.hdrs = make([]relation.Tuple, hdrChunk)
	}
	h := rx.hdrs[:0:c]
	rx.hdrs = rx.hdrs[c:]
	return h
}

// intern returns b as a string, allocating only for a name not seen since
// the table was last cleared.
func (rx *receiver) intern(b []byte) string {
	if s, ok := rx.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(s) <= maxNameLen {
		if len(rx.names) >= maxNames {
			clear(rx.names)
		}
		rx.names[s] = s
	}
	return s
}

// Close stops the listener and closes every connection.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	if t.listener != nil {
		_ = t.listener.Close()
	}
	for node, c := range t.conns {
		_ = c.c.Close()
		delete(t.conns, node)
	}
	for _, c := range t.accepted {
		_ = c.Close()
	}
	t.accepted = nil
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}

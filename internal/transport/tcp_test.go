package transport

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/simnet"
)

// tcpPair builds two connected TCP transports.
func tcpPair(t *testing.T) (*TCP, *TCP) {
	t.Helper()
	a, err := NewTCP("nodeA", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCP("nodeB", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a.AddPeer("nodeB", b.Addr())
	b.AddPeer("nodeA", a.Addr())
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return a, b
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never satisfied")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTCPDelivery(t *testing.T) {
	a, b := tcpPair(t)
	var mu sync.Mutex
	var got *Message
	var from simnet.NodeID
	b.Register("nodeB", "frag/F2#0", func(f simnet.NodeID, m *Message) {
		mu.Lock()
		from, got = f, m
		mu.Unlock()
	})
	msg := &Message{
		Kind: KindData, Exchange: "E1", StartSeq: 5,
		Tuples: []relation.Tuple{{relation.String("ORF"), relation.Int(9)}},
	}
	if _, err := a.Send("nodeA", "nodeB", "frag/F2#0", msg); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got != nil
	})
	mu.Lock()
	defer mu.Unlock()
	if from != "nodeA" || got.StartSeq != 5 || len(got.Tuples) != 1 ||
		got.Tuples[0][0].AsString() != "ORF" {
		t.Fatalf("delivered %+v from %q", got, from)
	}
}

func TestTCPReplyOverSameDirection(t *testing.T) {
	// Request goes A->B, reply goes B->A through B's own dial-back.
	a, b := tcpPair(t)
	reply := make(chan *Message, 1)
	a.Register("nodeA", "responder", func(_ simnet.NodeID, m *Message) {
		reply <- m
	})
	b.Register("nodeB", "frag/F1#0", func(from simnet.NodeID, m *Message) {
		out := &Message{Kind: KindReply, Ctrl: &Ctrl{
			Op: m.Ctrl.Op, RequestID: m.Ctrl.RequestID, OK: true, Routed: 77,
		}}
		if _, err := b.Send("nodeB", from, m.Ctrl.ReplyService, out); err != nil {
			t.Errorf("reply: %v", err)
		}
	})
	req := &Message{Kind: KindControl, Ctrl: &Ctrl{
		Op: CtrlProgress, RequestID: 1, ReplyTo: "nodeA", ReplyService: "responder",
	}}
	if _, err := a.Send("nodeA", "nodeB", "frag/F1#0", req); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-reply:
		if m.Ctrl.Routed != 77 || !m.Ctrl.OK {
			t.Fatalf("reply = %+v", m.Ctrl)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reply")
	}
}

func TestTCPLocalDelivery(t *testing.T) {
	a, _ := tcpPair(t)
	hit := false
	a.Register("nodeA", "svc", func(simnet.NodeID, *Message) { hit = true })
	if _, err := a.Send("nodeA", "nodeA", "svc", &Message{Kind: KindEOS}); err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("local delivery must be synchronous")
	}
}

func TestTCPErrors(t *testing.T) {
	a, _ := tcpPair(t)
	if _, err := a.Send("nodeA", "nodeC", "svc", &Message{Kind: KindEOS}); err == nil {
		t.Error("send to unknown peer accepted")
	}
	if _, err := a.Send("nodeA", "nodeA", "missing", &Message{Kind: KindEOS}); err == nil {
		t.Error("send to missing local service accepted")
	}
	a.Unregister("nodeA", "svc")
	defer func() {
		if recover() == nil {
			t.Error("registering for a remote node must panic")
		}
	}()
	a.Register("nodeZ", "svc", func(simnet.NodeID, *Message) {})
}

func TestTCPManyMessagesOrdered(t *testing.T) {
	a, b := tcpPair(t)
	var mu sync.Mutex
	var seqs []int64
	b.Register("nodeB", "svc", func(_ simnet.NodeID, m *Message) {
		mu.Lock()
		seqs = append(seqs, m.StartSeq)
		mu.Unlock()
	})
	const n = 500
	for i := 0; i < n; i++ {
		if _, err := a.Send("nodeA", "nodeB", "svc", &Message{Kind: KindData, StartSeq: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seqs) == n
	})
	mu.Lock()
	defer mu.Unlock()
	for i, s := range seqs {
		if s != int64(i) {
			t.Fatalf("out of order at %d: %d", i, s)
		}
	}
}

// TestTCPTuplesSurviveFrameReuse: the read loop reads every frame of a
// connection into its receive slab and decodes it in place. Tuples kept from
// the first message must still read as sent after later frames of the same
// size — same string lengths, different bytes — have arrived behind it.
func TestTCPTuplesSurviveFrameReuse(t *testing.T) {
	a, b := tcpPair(t)
	const messages, perMessage = 4, 50
	payload := func(msg, i int) string {
		return strings.Repeat(string(rune('a'+msg)), 24) + fmt.Sprintf("%04d", i)
	}
	var mu sync.Mutex
	var got [][]relation.Tuple
	b.Register("nodeB", "svc", func(_ simnet.NodeID, m *Message) {
		mu.Lock()
		got = append(got, m.Tuples) // retained past the handler, like a hash-join build side
		mu.Unlock()
	})
	for msg := 0; msg < messages; msg++ {
		m := &Message{Kind: KindData, Exchange: "E1"}
		for i := 0; i < perMessage; i++ {
			m.Tuples = append(m.Tuples, relation.Tuple{relation.String(payload(msg, i)), relation.Int(int64(i))})
		}
		if _, err := a.Send("nodeA", "nodeB", "svc", m); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == messages
	})
	mu.Lock()
	defer mu.Unlock()
	for msg, tuples := range got {
		if len(tuples) != perMessage {
			t.Fatalf("message %d: %d tuples, want %d", msg, len(tuples), perMessage)
		}
		for i, tp := range tuples {
			if s := tp[0].AsString(); s != payload(msg, i) || tp[1].AsInt() != int64(i) {
				t.Fatalf("message %d tuple %d reads %q/%d after later frames, want %q/%d",
					msg, i, s, tp[1].AsInt(), payload(msg, i), i)
			}
		}
	}
}

// TestTCPPeerRestart reproduces the multi-process deployment sequence: the
// evaluator keeps a cached dial connection to the coordinator, the
// coordinator process exits, a new one binds the same address, and the
// evaluator must reach it — the dead connection's read loop has to evict
// the cache entry so the next Send re-dials (a write to the stale socket
// can succeed silently, so waiting for a write error loses the message).
func TestTCPPeerRestart(t *testing.T) {
	a, err := NewTCP("nodeA", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	b1, err := NewTCP("nodeB", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := b1.Addr()
	a.AddPeer("nodeB", addr)
	var mu sync.Mutex
	hits := 0
	b1.Register("nodeB", "svc", func(simnet.NodeID, *Message) {
		mu.Lock()
		hits++
		mu.Unlock()
	})
	if _, err := a.Send("nodeA", "nodeB", "svc", &Message{Kind: KindEOS}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return hits == 1 })

	// Restart the peer on the same address; a's cached connection is dead.
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := NewTCP("nodeB", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b2.Close() })
	got := make(chan struct{}, 16)
	b2.Register("nodeB", "svc", func(simnet.NodeID, *Message) { got <- struct{}{} })

	// The eviction races with the resend, so retry: once the read loop has
	// dropped the stale connection, a Send dials b2 and must get through.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _ = a.Send("nodeA", "nodeB", "svc", &Message{Kind: KindEOS})
		select {
		case <-got:
			return
		case <-time.After(50 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted peer never reached: stale connection still cached")
		}
	}
}

// TestTCPSendAfterClose: a sender that outlives Close — an exchange ack still
// in flight at teardown — gets an error instead of dialling a connection and
// starting a read loop that Close has already stopped waiting for.
func TestTCPSendAfterClose(t *testing.T) {
	a, _ := tcpPair(t)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Send("nodeA", "nodeB", "svc", &Message{Kind: KindEOS}); err == nil {
		t.Fatal("send on a closed transport accepted")
	}
	a.mu.Lock()
	cached := len(a.conns)
	a.mu.Unlock()
	if cached != 0 {
		t.Fatalf("closed transport cached %d connections", cached)
	}
}

// TestTCPWriteFailureRedials checks that a send whose write fails drops the
// cached connection, and that the next send dials afresh and is delivered.
// The failure is a write deadline already past, so the connection's read
// loop stays unaware of it and cannot evict the entry first.
func TestTCPWriteFailureRedials(t *testing.T) {
	a, b := tcpPair(t)
	got := make(chan int64, 2)
	b.Register("nodeB", "svc", func(_ simnet.NodeID, m *Message) { got <- m.StartSeq })
	recv := func() int64 {
		select {
		case seq := <-got:
			return seq
		case <-time.After(5 * time.Second):
			t.Fatal("message never delivered")
			return 0
		}
	}
	if _, err := a.Send("nodeA", "nodeB", "svc", &Message{Kind: KindEOS, StartSeq: 1}); err != nil {
		t.Fatal(err)
	}
	if seq := recv(); seq != 1 {
		t.Fatalf("delivered seq %d, want 1", seq)
	}
	a.mu.Lock()
	stale := a.conns["nodeB"]
	a.mu.Unlock()
	_ = stale.c.SetWriteDeadline(time.Now().Add(-time.Second))
	if _, err := a.Send("nodeA", "nodeB", "svc", &Message{Kind: KindEOS, StartSeq: 2}); err == nil {
		t.Fatal("send past the write deadline succeeded")
	}
	a.mu.Lock()
	_, cached := a.conns["nodeB"]
	a.mu.Unlock()
	if cached {
		t.Fatal("failed connection still cached")
	}
	if _, err := a.Send("nodeA", "nodeB", "svc", &Message{Kind: KindEOS, StartSeq: 3}); err != nil {
		t.Fatalf("send after the failure did not redial: %v", err)
	}
	if seq := recv(); seq != 3 {
		t.Fatalf("delivered seq %d, want 3", seq)
	}
	a.mu.Lock()
	fresh := a.conns["nodeB"]
	a.mu.Unlock()
	if fresh == nil || fresh == stale {
		t.Fatal("second send reused the failed connection")
	}
}

func TestTCPCloseIdempotent(t *testing.T) {
	a, err := NewTCP("x", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if a.Addr() == "" {
		t.Error("no listen address")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Send-only transport.
	c, err := NewTCP("y", "")
	if err != nil {
		t.Fatal(err)
	}
	if c.Addr() != "" {
		t.Error("send-only transport has an address")
	}
	_ = c.Close()
}

// TestTCPSendAllocatesNothing sends acknowledgements to a connected loopback
// peer that discards the bytes: framing and encoding reuse pooled buffers.
func TestTCPSendAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if c, err := ln.Accept(); err == nil {
			_, _ = io.Copy(io.Discard, c)
			_ = c.Close()
		}
	}()
	a, err := NewTCP("nodeA", "")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.AddPeer("nodeB", ln.Addr().String())
	msg := &Message{Kind: KindAck, Exchange: "E1", ProducerIdx: 1, Checkpoint: 50, Except: []int64{3, 4}}
	send := func() {
		if _, err := a.Send("nodeA", "nodeB", "frag/F1#1", msg); err != nil {
			t.Fatal(err)
		}
	}
	send() // dial once
	if n := testing.AllocsPerRun(100, send); n != 0 {
		t.Fatalf("TCP.Send allocates %.2f times per message", n)
	}
}

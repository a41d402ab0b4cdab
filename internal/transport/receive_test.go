package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/relation"
	"repro/internal/simnet"
)

// rawFrame frames an encoded message for service as TCP.Send does: a 4-byte
// big-endian length, then the routing header (service, sender) and message.
func rawFrame(service, from string, msg []byte) []byte {
	body := appendString(nil, service)
	body = appendString(body, from)
	body = append(body, msg...)
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// slabPayload is the string of tuple i of frame f: every frame's strings
// differ, so a tuple reading another frame's bytes is caught.
func slabPayload(f, i int) string {
	return fmt.Sprintf("%c%05d-%04d-", 'a'+f%26, f, i) + strings.Repeat("x", 24)
}

func slabMessage(f, tuples int) *Message {
	m := &Message{Kind: KindData, Exchange: "E", StartSeq: int64(f)}
	for i := 0; i < tuples; i++ {
		m.Tuples = append(m.Tuples, relation.Tuple{relation.String(slabPayload(f, i)), relation.Int(int64(i))})
	}
	return m
}

// TestTCPReceiveSlabRetainsEveryFrame writes, on one connection, frames that
// run past the end of the first slab chunk, a corrupt frame whose decode gets
// as far as carving tuples before it fails, one frame larger than a chunk,
// and more frames behind it. Tuples retained from every good frame must read
// as sent once all have arrived, and only the corrupt frame is counted.
func TestTCPReceiveSlabRetainsEveryFrame(t *testing.T) {
	_, b := tcpPair(t)
	var mu sync.Mutex
	got := make(map[int64][]relation.Tuple)
	b.Register("nodeB", "svc", func(_ simnet.NodeID, m *Message) {
		mu.Lock()
		got[m.StartSeq] = m.Tuples // retained past the handler
		mu.Unlock()
	})
	before := b.obsCorrupt.Value()

	const small, large = 40, 2000
	sizes := map[int]int{}
	var stream []byte
	frames, slabBytes := 0, 0
	add := func(tuples int) {
		f := rawFrame("svc", "raw", MarshalMessage(slabMessage(frames, tuples)))
		sizes[frames] = tuples
		frames++
		stream = append(stream, f...)
		if tuples == small {
			slabBytes += len(f) - 4
		}
	}
	for slabBytes <= slabChunk {
		add(small)
	}
	// Two good tuples and a third with an unknown value tag.
	bad := binary.AppendUvarint(dataHeader(), 3)
	bad = relation.AppendTuple(bad, relation.Tuple{relation.String(slabPayload(99, 0))})
	bad = relation.AppendTuple(bad, relation.Tuple{relation.String(slabPayload(99, 1))})
	bad = append(bad, 1, 9)
	stream = append(stream, rawFrame("svc", "raw", bad)...)
	add(large)
	if n := len(MarshalMessage(slabMessage(0, large))); n <= slabChunk {
		t.Fatalf("the large frame is %d bytes, not larger than a %d-byte chunk", n, slabChunk)
	}
	for i := 0; i < 5; i++ {
		add(small)
	}

	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == frames
	})
	mu.Lock()
	defer mu.Unlock()
	for f := 0; f < frames; f++ {
		tuples := got[int64(f)]
		if len(tuples) != sizes[f] {
			t.Fatalf("frame %d: %d tuples, want %d", f, len(tuples), sizes[f])
		}
		for i, tp := range tuples {
			if s := tp[0].AsString(); s != slabPayload(f, i) || tp[1].AsInt() != int64(i) {
				t.Fatalf("frame %d tuple %d reads %q/%d, want %q/%d", f, i, s, tp[1].AsInt(), slabPayload(f, i), i)
			}
		}
	}
	if n := b.obsCorrupt.Value() - before; n != 1 {
		t.Fatalf("transport_corrupt_frames_total rose by %d, want 1", n)
	}
}

// TestTCPInternTableBounded runs a connection's receive loop over frames
// from one peer naming 10 000 distinct services and exchanges. Every
// registered service gets its messages with the right names, every other
// message is dropped uncounted, as before interning, and the connection's
// intern table never holds more than its bound.
func TestTCPInternTableBounded(t *testing.T) {
	b, err := NewTCP("nodeB", "")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	const names, every = 10000, 100
	var delivered []string
	for i := 0; i < names; i += every {
		svc := fmt.Sprintf("svc/%d", i)
		b.Register("nodeB", svc, func(from simnet.NodeID, m *Message) {
			if from != "peer" || m.Exchange != "E"+svc {
				t.Errorf("%s got exchange %q from %q", svc, m.Exchange, from)
			}
			delivered = append(delivered, svc)
		})
	}
	var stream []byte
	for i := 0; i < names; i++ {
		svc := fmt.Sprintf("svc/%d", i)
		stream = append(stream, rawFrame(svc, "peer", MarshalMessage(&Message{Kind: KindEOS, Exchange: "E" + svc}))...)
	}
	before := b.obsCorrupt.Value()
	rx := newReceiver()
	b.receive(bufio.NewReader(bytes.NewReader(stream)), rx)
	if len(rx.names) > maxNames {
		t.Fatalf("intern table holds %d names, bound %d", len(rx.names), maxNames)
	}
	if len(delivered) != names/every {
		t.Fatalf("%d messages delivered, want %d", len(delivered), names/every)
	}
	if n := b.obsCorrupt.Value() - before; n != 0 {
		t.Fatalf("transport_corrupt_frames_total rose by %d on well-formed frames", n)
	}
}

// maxReceiveAllocsPerFrame bounds what receiving one 50-tuple data frame
// allocates, the Value arena's chunks included (about 0.16 a frame at 100
// values): the receive path itself allocates per connection, not per frame.
// A decoder that makes fresh objects for every frame reads about 6 here.
const maxReceiveAllocsPerFrame = 0.5

// TestTCPReceiveAllocsPerMessage sends data frames of 50 tuples over loopback
// and counts every allocation until the receiver's handler has seen them all;
// the sending side allocates nothing (TestTCPSendAllocatesNothing).
func TestTCPReceiveAllocsPerMessage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	a, b := tcpPair(t)
	var got atomic.Int64
	b.Register("nodeB", "svc", func(simnet.NodeID, *Message) { got.Add(1) })
	msg := &Message{Kind: KindData, Exchange: "E1"}
	for i := 0; i < 50; i++ {
		msg.Tuples = append(msg.Tuples, relation.Tuple{relation.String(fmt.Sprintf("ORF%08d", i)), relation.Int(int64(i))})
	}
	const frames = 200
	send := func() {
		want := got.Load() + frames
		for i := 0; i < frames; i++ {
			if _, err := a.Send("nodeA", "nodeB", "svc", msg); err != nil {
				t.Fatal(err)
			}
		}
		for got.Load() < want {
			runtime.Gosched()
		}
	}
	send() // dial, and start the connection's chunks
	n := testing.AllocsPerRun(5, send) / frames
	t.Logf("%.3f allocations per frame", n)
	if n > maxReceiveAllocsPerFrame {
		t.Fatalf("receiving allocates %.3f times per frame, want at most %.2f", n, maxReceiveAllocsPerFrame)
	}
}

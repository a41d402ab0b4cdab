package transport

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"

	"repro/internal/relation"
	"repro/internal/simnet"
)

// dataHeader builds the fixed prefix of a KindData message up to (and
// excluding) the tuple count, matching AppendMessage's layout.
func dataHeader() []byte {
	b := []byte{byte(KindData)}
	b = appendString(b, "E")
	b = binary.AppendVarint(b, 0) // producer
	b = binary.AppendVarint(b, 0) // consumer
	b = binary.AppendVarint(b, 0) // epoch
	b = binary.AppendVarint(b, 0) // startSeq
	b = binary.AppendVarint(b, 0) // checkpoint
	b = appendBool(b, false)      // replay
	return b
}

// TestWireHugeCountRejected feeds corrupt headers whose element counts claim
// far more data than the frame carries: the decoder must return an error
// instead of trusting the count.
func TestWireHugeCountRejected(t *testing.T) {
	// A tuple count of 1<<30 with no payload behind it.
	b := binary.AppendUvarint(dataHeader(), 1<<30)
	if _, err := UnmarshalMessage(b); !errors.Is(err, ErrWire) {
		t.Fatalf("huge tuple count: err = %v, want ErrWire", err)
	}
	// Same for the bucket count, after a valid empty tuple section.
	b = binary.AppendUvarint(dataHeader(), 0)
	b = binary.AppendUvarint(b, 1<<40)
	if _, err := UnmarshalMessage(b); !errors.Is(err, ErrWire) {
		t.Fatalf("huge bucket count: err = %v, want ErrWire", err)
	}
}

// TestWirePreallocBounded: a count that passes the remaining-input sanity
// bound can still be orders of magnitude larger than the elements the
// payload actually holds. The decoder must allocate proportionally to the
// input, not to the claim — preallocN caps the initial capacity at 4096.
func TestWirePreallocBounded(t *testing.T) {
	// Announce 64k buckets backed by 64k bytes of varint zeros minus the
	// tail, so count() accepts it but decoding runs out of input. An
	// uncapped make([]int32, 64k) here would commit 256KiB up front on a
	// frame that proves to hold nothing useful.
	const claim = 1 << 16
	b := binary.AppendUvarint(dataHeader(), 0) // no tuples
	b = binary.AppendUvarint(b, claim)
	b = append(b, make([]byte, claim-1)...) // one element short
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := UnmarshalMessage(b); err == nil {
			t.Fatal("truncated bucket section accepted")
		}
	})
	// The exact count is not pinned, but an uncapped prealloc plus append
	// growth from 4096 to 64k would add several large allocations; the
	// capped decoder stays small. This guards against reintroducing
	// count-trusting makes.
	if allocs > 32 {
		t.Fatalf("decoder made %.0f allocations on a truncated frame", allocs)
	}
}

// TestWireRelationCountCap covers the same property at the tuple codec
// level: every decode entry point must reject counts beyond the input.
func TestWireRelationCountCap(t *testing.T) {
	b := binary.AppendUvarint(nil, 1<<50)
	var a relation.Arena
	if _, _, err := relation.DecodeTuple(&a, b); !errors.Is(err, relation.ErrCorrupt) {
		t.Fatalf("huge value count: err = %v, want ErrCorrupt", err)
	}
	if _, _, _, err := relation.DecodeTuplesShared(&a, string(b), b, 1, relation.NewBatch(1), nil); !errors.Is(err, relation.ErrCorrupt) {
		t.Fatalf("huge value count, fused decoder: err = %v, want ErrCorrupt", err)
	}
	if _, _, err := relation.TupleCount(b); !errors.Is(err, relation.ErrCorrupt) {
		t.Fatalf("huge tuple count: err = %v, want ErrCorrupt", err)
	}
}

// TestTCPCorruptFrameCountedAndDropped writes raw frames to a live transport:
// a frame whose routing header parses but whose message is corrupt (a data
// message claiming more tuples than it carries, then one with an unknown
// value tag) is dropped and counted, and the connection stays up for the
// well-formed frame behind it.
func TestTCPCorruptFrameCountedAndDropped(t *testing.T) {
	_, b := tcpPair(t)
	delivered := make(chan *Message, 1)
	b.Register("nodeB", "svc", func(_ simnet.NodeID, m *Message) { delivered <- m })
	before := b.obsCorrupt.Value()

	frame := func(msg []byte) []byte {
		body := appendString(nil, "svc")
		body = appendString(body, "raw")
		body = append(body, msg...)
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
	}
	short := binary.AppendUvarint(dataHeader(), 3) // three tuples announced, none sent
	badTag := binary.AppendUvarint(dataHeader(), 1)
	badTag = append(badTag, 1, 9) // one value, tag 9
	good := MarshalMessage(&Message{Kind: KindData, Exchange: "E",
		Tuples: []relation.Tuple{{relation.String("kept")}}})

	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, f := range [][]byte{frame(short), frame(badTag), frame(good)} {
		if _, err := conn.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	var m *Message
	waitFor(t, func() bool {
		select {
		case m = <-delivered:
			return true
		default:
			return false
		}
	})
	if len(m.Tuples) != 1 || m.Tuples[0][0].AsString() != "kept" {
		t.Fatalf("delivered %+v, want the one well-formed message", m)
	}
	if n := b.obsCorrupt.Value() - before; n != 2 {
		t.Fatalf("transport_corrupt_frames_total rose by %d, want 2", n)
	}
}

// TestWireRejectsBucketCountMismatch: a data message carries one bucket per
// tuple or none. A short list would leave a receiver's tuples without their
// routing bucket and a long one names tuples that do not exist, so either
// is refused as ErrWire, and a TCP receiver drops and counts the frame.
func TestWireRejectsBucketCountMismatch(t *testing.T) {
	tuples := []relation.Tuple{{relation.Int(1)}, {relation.Int(2)}, {relation.Int(3)}}
	bad := []*Message{
		{Kind: KindData, Exchange: "E", Tuples: tuples, Buckets: []int32{4, 5}},
		{Kind: KindData, Exchange: "E", Tuples: tuples[:2], Buckets: []int32{4, 5, 6}},
		{Kind: KindData, Exchange: "E", Buckets: []int32{4}},
	}
	for i, m := range bad {
		if _, err := UnmarshalMessage(MarshalMessage(m)); !errors.Is(err, ErrWire) {
			t.Fatalf("message %d (%d tuples, %d buckets): err = %v, want ErrWire", i, len(m.Tuples), len(m.Buckets), err)
		}
	}
	for _, m := range []*Message{
		{Kind: KindData, Exchange: "E", Tuples: tuples},
		{Kind: KindData, Exchange: "E", Tuples: tuples, Buckets: []int32{4, 5, 6}},
	} {
		if _, err := UnmarshalMessage(MarshalMessage(m)); err != nil {
			t.Fatalf("%d tuples, %d buckets refused: %v", len(m.Tuples), len(m.Buckets), err)
		}
	}

	a, b := tcpPair(t)
	delivered := make(chan *Message, 1)
	b.Register("nodeB", "svc", func(_ simnet.NodeID, m *Message) { delivered <- m })
	before := b.obsCorrupt.Value()
	for _, m := range append(bad, &Message{Kind: KindEOS, Exchange: "E"}) {
		if _, err := a.Send("nodeA", "nodeB", "svc", m); err != nil {
			t.Fatal(err)
		}
	}
	var m *Message
	waitFor(t, func() bool {
		select {
		case m = <-delivered:
			return true
		default:
			return false
		}
	})
	if m.Kind != KindEOS {
		t.Fatalf("delivered %+v, want only the well-formed EOS", m)
	}
	if n := b.obsCorrupt.Value() - before; n != int64(len(bad)) {
		t.Fatalf("transport_corrupt_frames_total rose by %d, want %d", n, len(bad))
	}
}

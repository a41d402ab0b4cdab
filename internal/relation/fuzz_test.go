package relation

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzTupleCodecRoundTrip feeds arbitrary bytes to the tuple decoder. The
// invariants: DecodeTuple never panics — corrupt input yields an error
// wrapping ErrCorrupt — and anything that decodes cleanly re-encodes to the
// same canonical bytes (byte equality rather than Tuple.Equal, because a
// fuzzed float payload can hold NaN, which never compares equal to itself).
func FuzzTupleCodecRoundTrip(f *testing.F) {
	f.Add(EncodeTuple(Tuple{}))
	f.Add(EncodeTuple(Tuple{Null}))
	f.Add(EncodeTuple(Tuple{Int(42), Int(-1)}))
	f.Add(EncodeTuple(Tuple{Float(3.25), Float(-1e300)}))
	f.Add(EncodeTuple(Tuple{String(""), String("ORF YAL00007C")}))
	f.Add(EncodeTuple(Tuple{Int(1), Float(2.5), String("x"), Null}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{2, 1})       // announces 2 values, holds half of one
	f.Add([]byte{1, 99})      // unknown value tag
	f.Add([]byte{1, 3, 0x80}) // string with non-terminating length varint
	f.Fuzz(func(t *testing.T, b []byte) {
		tp, rest, err := DecodeTuple(new(Arena), b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		enc := EncodeTuple(tp)
		tp2, tail, err := DecodeTuple(new(Arena), enc)
		if err != nil {
			t.Fatalf("re-decode of valid encoding failed: %v", err)
		}
		if len(tail) != 0 {
			t.Fatalf("re-decode left %d bytes", len(tail))
		}
		if !bytes.Equal(enc, EncodeTuple(tp2)) {
			t.Fatalf("round trip changed encoding: %x != %x", enc, EncodeTuple(tp2))
		}
		// A successful decode consumes at least the count byte, and rest
		// must be a true suffix of the input.
		if consumed := len(b) - len(rest); consumed < 1 || !bytes.HasSuffix(b, rest) {
			t.Fatalf("decoder consumed %d bytes of %d", consumed, len(b))
		}
	})
}

// FuzzTuplesCodecRoundTrip covers the count-prefixed batch framing the
// exchange, storage and wire layers use, through decodeTuples: every input is
// decoded by the plain reference decoder and by the fused DecodeTuplesShared,
// which must agree on validity and on the decoded tuples.
func FuzzTuplesCodecRoundTrip(f *testing.F) {
	f.Add(EncodeTuples(nil))
	f.Add(EncodeTuples([]Tuple{{Int(1)}, {String("a"), Null}}))
	f.Add([]byte{0xfe, 0xff, 0xff, 0xff, 0x0f}) // huge count, no payload
	f.Fuzz(func(t *testing.T, b []byte) {
		ts, err := decodeTuples(b, 2)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		enc := EncodeTuples(ts)
		ts2, err := decodeTuples(enc, 2)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(enc, EncodeTuples(ts2)) {
			t.Fatalf("round trip changed encoding: %x != %x", enc, EncodeTuples(ts2))
		}
	})
}

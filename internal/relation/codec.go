package relation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// The binary tuple codec is used by the TCP transport when shipping buffers
// between evaluators and by tests that assert the wire representation is
// stable. The format is:
//
//	tuple   := count:uvarint value*
//	value   := tag:byte payload
//	tag 0   := NULL (no payload)
//	tag 1   := TInt, payload int64 zig-zag uvarint
//	tag 2   := TFloat, payload 8 bytes little-endian IEEE-754
//	tag 3   := TString, payload len:uvarint bytes
//
// The codec is self-describing, so a schema is not required for decoding.

// ErrCorrupt is returned (wrapped) when decoding malformed bytes.
var ErrCorrupt = errors.New("relation: corrupt tuple encoding")

// maxPrealloc caps capacity pre-allocations derived from wire-controlled
// counts. A corrupt (or hostile) header can still claim a huge element
// count, but decoders grow by append from at most this capacity instead of
// trusting the count, so the allocation is bounded by the actual input size.
const maxPrealloc = 4096

// preallocCount bounds a wire-announced element count for use as an initial
// slice capacity.
func preallocCount(n uint64) int {
	if n > maxPrealloc {
		return maxPrealloc
	}
	return int(n)
}

// encBufPool recycles encode buffers, each in a *[]byte box; boxPool keeps
// the boxes Get emptied for Put to refill. A sync.Pool holds pointers, and
// boxing a caller's slice afresh on every Put would allocate, so with the
// two pools steady-state encoding of buffers and messages allocates nothing.
var (
	encBufPool = sync.Pool{New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	}}
	boxPool = sync.Pool{New: func() any { return new([]byte) }}
)

// GetEncodeBuffer returns an empty pooled byte buffer for encoding. Return
// it with PutEncodeBuffer once its contents have been copied out or written.
func GetEncodeBuffer() []byte {
	box := encBufPool.Get().(*[]byte)
	b := (*box)[:0]
	*box = nil
	boxPool.Put(box)
	return b
}

// PutEncodeBuffer recycles a buffer obtained from GetEncodeBuffer (or any
// other buffer the caller no longer needs). The caller must not use b again.
func PutEncodeBuffer(b []byte) {
	if cap(b) == 0 {
		return
	}
	box := boxPool.Get().(*[]byte)
	*box = b[:0]
	encBufPool.Put(box)
}

// AppendTuple appends the binary encoding of t to dst and returns the
// extended slice.
func AppendTuple(dst []byte, t Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		switch v.typ {
		case 0:
			dst = append(dst, 0)
		case TInt:
			dst = append(dst, 1)
			dst = binary.AppendVarint(dst, int64(v.n))
		case TFloat:
			dst = append(dst, 2)
			dst = binary.LittleEndian.AppendUint64(dst, v.n)
		case TString:
			dst = append(dst, 3)
			dst = binary.AppendUvarint(dst, uint64(len(v.s)))
			dst = append(dst, v.s...)
		default:
			panic(fmt.Sprintf("relation: encoding value of invalid type %d", v.typ))
		}
	}
	return dst
}

// EncodeTuple returns the binary encoding of t.
func EncodeTuple(t Tuple) []byte {
	return AppendTuple(make([]byte, 0, t.ByteSize()), t)
}

// DecodeTuple decodes one tuple from the front of b, returning the tuple and
// the remaining bytes. The tuple's value slots are carved from the caller's
// arena; it is an ordinary immutable tuple and may outlive the arena. String
// values are copied out of b, so b may be reused afterwards.
//
// This is deliberately the plain decoder — binary.Uvarint, one value at a
// time, no hand-inlined fast paths: it is the independent reference the fuzz
// and corruption tests hold the fused DecodeTuplesShared against.
func DecodeTuple(a *Arena, b []byte) (Tuple, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, b, fmt.Errorf("%w: bad value count", ErrCorrupt)
	}
	if n > uint64(len(b)) { // cheap sanity bound: ≥1 byte per value
		return nil, b, fmt.Errorf("%w: value count %d exceeds input", ErrCorrupt, n)
	}
	b = b[sz:]
	t := a.Alloc(preallocCount(n))[:0]
	for i := uint64(0); i < n; i++ {
		if len(b) == 0 {
			return nil, b, fmt.Errorf("%w: truncated value", ErrCorrupt)
		}
		tag := b[0]
		b = b[1:]
		switch tag {
		case 0:
			t = append(t, Null)
		case 1:
			v, sz := binary.Varint(b)
			if sz <= 0 {
				return nil, b, fmt.Errorf("%w: bad int", ErrCorrupt)
			}
			b = b[sz:]
			t = append(t, Int(v))
		case 2:
			if len(b) < 8 {
				return nil, b, fmt.Errorf("%w: truncated float", ErrCorrupt)
			}
			t = append(t, Float(math.Float64frombits(binary.LittleEndian.Uint64(b))))
			b = b[8:]
		case 3:
			l, sz := binary.Uvarint(b)
			if sz <= 0 || l > uint64(len(b)-sz) {
				return nil, b, fmt.Errorf("%w: bad string length", ErrCorrupt)
			}
			b = b[sz:]
			t = append(t, String(string(b[:l])))
			b = b[l:]
		default:
			return nil, b, fmt.Errorf("%w: unknown value tag %d", ErrCorrupt, tag)
		}
	}
	return t, b, nil
}

// DecodeTuplesShared is the vectorized decoder of the hot paths (stored
// scans, morsel leaves, the wire receive path): it decodes tuples from the
// front of b straight into dst until dst is full or left tuples have been
// decoded, carving value slots from the arena and string values as
// substrings of base instead of copying them. base must be the string
// conversion of the byte sequence b is an unconsumed suffix of (value
// offsets are derived as len(base)-len(b)); carved tuples share its backing,
// so retaining one keeps its whole block's string alive. sizes, when
// non-nil, is extended with the encoded byte size of each appended tuple
// and returned (an encoded size, shorter than Tuple.ByteSize's fixed-width
// estimate); pass nil when sizes are not needed. The whole header/value loop is fused and index-based — one
// call and one bounds context per run of tuples. Returns the undecoded
// remainder and how many of left remain.
func DecodeTuplesShared(a *Arena, base string, b []byte, left uint64, dst *Batch, sizes []int) ([]byte, uint64, []int, error) {
	// pos indexes b; baseOff+pos is the same byte's offset in base.
	baseOff := len(base) - len(b)
	pos := 0
	// The single-byte uvarint fast path is inlined by hand at each read
	// site (uvarintAt's wrapper is past the compiler's inlining budget);
	// it covers value counts, string lengths, and small ints — nearly
	// every varint of a realistic schema.
	for left > 0 && !dst.Full() {
		start := pos
		var n uint64
		if uint(pos) < uint(len(b)) && b[pos] < 0x80 {
			n, pos = uint64(b[pos]), pos+1
		} else {
			var p int
			if n, p = uvarintAtSlow(b, pos); p < 0 {
				return b[start:], left, sizes, fmt.Errorf("%w: bad value count", ErrCorrupt)
			}
			pos = p
		}
		if n > uint64(len(b)-pos) { // cheap sanity bound: ≥1 byte per value
			return b[start:], left, sizes, fmt.Errorf("%w: bad value count", ErrCorrupt)
		}
		t := a.Alloc(preallocCount(n))[:0]
		for i := uint64(0); i < n; i++ {
			if pos >= len(b) {
				return b[start:], left, sizes, fmt.Errorf("%w: truncated value", ErrCorrupt)
			}
			tag := b[pos]
			pos++
			switch tag {
			case 0:
				t = append(t, Null)
			case 1:
				var u uint64
				if uint(pos) < uint(len(b)) && b[pos] < 0x80 {
					u, pos = uint64(b[pos]), pos+1
				} else {
					var p int
					if u, p = uvarintAtSlow(b, pos); p < 0 {
						return b[start:], left, sizes, fmt.Errorf("%w: bad int", ErrCorrupt)
					}
					pos = p
				}
				v := int64(u >> 1) // inline zigzag decode (binary.Varint semantics)
				if u&1 != 0 {
					v = ^v
				}
				t = append(t, Int(v))
			case 2:
				if len(b)-pos < 8 {
					return b[start:], left, sizes, fmt.Errorf("%w: truncated float", ErrCorrupt)
				}
				t = append(t, Float(math.Float64frombits(binary.LittleEndian.Uint64(b[pos:]))))
				pos += 8
			case 3:
				var l uint64
				p := -1
				if uint(pos) < uint(len(b)) && b[pos] < 0x80 {
					l, p = uint64(b[pos]), pos+1
				} else {
					l, p = uvarintAtSlow(b, pos)
				}
				if p < 0 || l > uint64(len(b)-p) {
					return b[start:], left, sizes, fmt.Errorf("%w: bad string length", ErrCorrupt)
				}
				pos = p + int(l)
				t = append(t, String(base[baseOff+p:baseOff+pos]))
			default:
				return b[start:], left, sizes, fmt.Errorf("%w: unknown value tag %d", ErrCorrupt, tag)
			}
		}
		left--
		dst.Append(t)
		if sizes != nil {
			sizes = append(sizes, pos-start)
		}
	}
	return b[pos:], left, sizes, nil
}

// uvarintAtSlow is the multi-byte tail of the decode loop's hand-inlined
// single-byte uvarint fast path: uvarint reading at offset pos of b,
// returning the value and the offset just past it; a negative offset
// signals a malformed or truncated encoding. Callers reach it only when
// pos is out of range or b[pos] has the continuation bit set.
func uvarintAtSlow(b []byte, pos int) (uint64, int) {
	if pos+1 < len(b) && b[pos+1] < 0x80 && b[pos] >= 0x80 {
		return uint64(b[pos]&0x7f) | uint64(b[pos+1])<<7, pos + 2
	}
	v, sz := binary.Uvarint(b[pos:])
	if sz <= 0 {
		return 0, -1
	}
	return v, pos + sz
}

// AppendTuples appends the count-prefixed encoding of a tuple batch to dst
// and returns the extended slice — the batch encode entry point; combine
// with GetEncodeBuffer/PutEncodeBuffer to encode without allocating.
func AppendTuples(dst []byte, ts []Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ts)))
	for _, t := range ts {
		dst = AppendTuple(dst, t)
	}
	return dst
}

// EncodeTuples encodes a slice of tuples back to back, prefixed by a count.
func EncodeTuples(ts []Tuple) []byte {
	size := 4
	for _, t := range ts {
		size += t.ByteSize()
	}
	return AppendTuples(make([]byte, 0, size), ts)
}

// TupleCount reads the count prefix of an AppendTuples/EncodeTuples
// encoding, returning the announced tuple count and the remaining bytes
// (the tuples themselves, decodable one at a time with DecodeTuple or in
// runs with DecodeTuplesShared). It is the streaming entry point block
// readers use to walk a block without materializing every tuple first.
func TupleCount(b []byte) (uint64, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return 0, b, fmt.Errorf("%w: bad tuple count", ErrCorrupt)
	}
	if n > uint64(len(b)) {
		return 0, b, fmt.Errorf("%w: tuple count %d exceeds input", ErrCorrupt, n)
	}
	return n, b[sz:], nil
}

package relation

import (
	"strings"
)

// Tuple is an ordered list of values conforming to some schema. Tuples are
// immutable by convention: operators build new tuples rather than mutating
// received ones, so a tuple may be shared between an operator's output, a
// recovery log, and an in-flight buffer without copying.
type Tuple []Value

// Clone returns a deep-enough copy of the tuple (values are value types, so
// a slice copy suffices).
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// AppendDoubling appends ts to dst like append, but doubles dst's capacity
// whenever a buffer of 1024 or more tuples must grow. For large slices
// append's growth tends to 1.25x, so a buffer that only ever grows — a
// sort's input, a result set — allocates up to five times its final size,
// where doubling allocates two to four times it. Below 1024 tuples append
// grows 1.5x to 2x after size-class rounding, which costs no more.
func AppendDoubling(dst []Tuple, ts ...Tuple) []Tuple {
	if n := len(dst) + len(ts); n > cap(dst) && cap(dst) >= 1024 {
		grown := make([]Tuple, len(dst), max(n, 2*cap(dst)))
		copy(grown, dst)
		dst = grown
	}
	return append(dst, ts...)
}

// Project returns a new tuple with the values at the given ordinals.
func (t Tuple) Project(ordinals []int) Tuple {
	out := make(Tuple, len(ordinals))
	for i, o := range ordinals {
		out[i] = t[o]
	}
	return out
}

// Equal reports whether two tuples have equal values position-wise.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Equal(u[i]) {
			return false
		}
	}
	return true
}

// Hash combines the hashes of the values at the given key ordinals. It is
// the partitioning hash used by hash-distribution policies and hash joins:
// equal keys always land in the same partition regardless of the values in
// non-key columns. Each column hash is folded with a single splitmix64
// round rather than a per-byte FNV loop, so the combine step costs three
// multiplies per column instead of eight shift/xor/multiply rounds.
func (t Tuple) Hash(keyOrdinals []int) uint64 {
	var h uint64 = 14695981039346656037 // FNV offset basis
	for _, o := range keyOrdinals {
		h = mix64(h ^ t[o].Hash())
	}
	return h
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection on uint64,
// so low-bit bucket assignment (h % buckets) stays uniform even for
// sequential or low-entropy value hashes.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Format renders the tuple as "(v1, v2, ...)" for logs and examples.
func (t Tuple) Format() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.Format())
	}
	b.WriteByte(')')
	return b.String()
}

// Key renders the tuple as a canonical string usable as a map key in tests
// that compare result multisets.
func (t Tuple) Key() string {
	var b strings.Builder
	for i, v := range t {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteByte(byte(v.typ))
		b.WriteString(v.Format())
	}
	return b.String()
}

// ByteSize returns an estimate of the wire size of the tuple in bytes; the
// simulated network charges bandwidth by this size.
func (t Tuple) ByteSize() int {
	n := 2 // count header
	for _, v := range t {
		switch v.typ {
		case TInt, TFloat:
			n += 9
		case TString:
			n += 5 + len(v.s)
		default:
			n++
		}
	}
	return n
}

package relation

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Value is a single typed datum. The zero Value is the NULL of type 0.
// Values are small and passed by copy: 32 bytes, the int and float payloads
// sharing one word, which every tuple, arena chunk and sort buffer pays per
// column.
type Value struct {
	typ Type
	n   uint64 // TInt payload as its two's-complement bits, TFloat as math.Float64bits
	s   string // TString payload
}

// Int returns a TInt value.
func Int(v int64) Value { return Value{typ: TInt, n: uint64(v)} }

// Float returns a TFloat value.
func Float(v float64) Value { return Value{typ: TFloat, n: math.Float64bits(v)} }

// String returns a TString value.
func String(v string) Value { return Value{typ: TString, s: v} }

// Null is the untyped null value.
var Null = Value{}

// Type returns the value's type; 0 for NULL.
func (v Value) Type() Type { return v.typ }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.typ == 0 }

// AsInt returns the integer payload. It panics if the value is not a TInt;
// use Type to check first when the type is not statically known.
func (v Value) AsInt() int64 {
	if v.typ != TInt {
		panic(fmt.Sprintf("relation: AsInt on %v value", v.typ))
	}
	return int64(v.n)
}

// AsFloat returns the float payload, widening TInt values.
func (v Value) AsFloat() float64 {
	switch v.typ {
	case TFloat:
		return math.Float64frombits(v.n)
	case TInt:
		return float64(int64(v.n))
	default:
		panic(fmt.Sprintf("relation: AsFloat on %v value", v.typ))
	}
}

// AsString returns the string payload. It panics if the value is not a
// TString.
func (v Value) AsString() string {
	if v.typ != TString {
		panic(fmt.Sprintf("relation: AsString on %v value", v.typ))
	}
	return v.s
}

// Format renders the value for display: NULL, decimal integers, shortest
// round-trip floats, and raw strings.
func (v Value) Format() string {
	switch v.typ {
	case 0:
		return "NULL"
	case TInt:
		return strconv.FormatInt(int64(v.n), 10)
	case TFloat:
		return strconv.FormatFloat(math.Float64frombits(v.n), 'g', -1, 64)
	case TString:
		return v.s
	default:
		return fmt.Sprintf("<bad value type %d>", uint8(v.typ))
	}
}

// Equal reports deep equality of two values. NULL equals only NULL (this is
// the equality used for hash-join keys, not three-valued SQL logic; the
// planner never routes NULL keys to the join when the predicate is an
// equi-join, because Compare filters them).
func (v Value) Equal(w Value) bool {
	if v.typ != w.typ {
		// Allow numeric cross-type equality so that join keys of mixed
		// integer/float columns behave as SQL users expect.
		if (v.typ == TInt || v.typ == TFloat) && (w.typ == TInt || w.typ == TFloat) {
			return v.AsFloat() == w.AsFloat()
		}
		return false
	}
	switch v.typ {
	case 0:
		return true
	case TInt:
		return v.n == w.n
	case TFloat:
		// Compared as floats, not bits: -0 equals 0 and NaN equals nothing.
		return math.Float64frombits(v.n) == math.Float64frombits(w.n)
	case TString:
		return v.s == w.s
	}
	return false
}

// Compare orders two values of the same broad type: -1, 0, +1. NULL sorts
// before every non-NULL value. Comparing a string with a number panics; the
// planner type-checks predicates so this is unreachable for valid plans.
func (v Value) Compare(w Value) int {
	if v.IsNull() || w.IsNull() {
		switch {
		case v.IsNull() && w.IsNull():
			return 0
		case v.IsNull():
			return -1
		default:
			return 1
		}
	}
	if v.typ == TString || w.typ == TString {
		if v.typ != TString || w.typ != TString {
			panic("relation: comparing string with non-string")
		}
		return strings.Compare(v.s, w.s)
	}
	a, b := v.AsFloat(), w.AsFloat()
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// FNV-1a parameters, inlined so hashing allocates nothing (hash/fnv's
// digest objects escape to the heap when used through the hash.Hash64
// interface, which showed up as one allocation per hashed value on every
// route and join probe).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash returns a 64-bit hash of the value, suitable for partitioning.
// Numeric values that compare equal hash equally (ints are hashed via their
// float64 image when they fit exactly, which all demo data does). The byte
// stream hashed is identical to the pre-vectorization fnv.New64a encoding,
// keeping value hashes stable across the rewrite.
func (v Value) Hash() uint64 {
	switch v.typ {
	case 0:
		return fnvByte(fnvOffset64, 0)
	case TInt:
		return fnvUint64(fnvByte(fnvOffset64, 1), v.n)
	case TFloat:
		// Same tag as TInt so 3 and 3.0 collide.
		if f := math.Float64frombits(v.n); f == math.Trunc(f) && math.Abs(f) < 1<<62 {
			return fnvUint64(fnvByte(fnvOffset64, 1), uint64(int64(f)))
		}
		return fnvUint64(fnvByte(fnvOffset64, 1), v.n)
	case TString:
		h := fnvByte(fnvOffset64, 3)
		for i := 0; i < len(v.s); i++ {
			h = fnvByte(h, v.s[i])
		}
		return h
	}
	return fnvOffset64
}

// fnvByte folds one byte into an FNV-1a state.
func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

// fnvUint64 folds eight little-endian bytes into an FNV-1a state.
func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v))
		v >>= 8
	}
	return h
}

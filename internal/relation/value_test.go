package relation

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueAccessors(t *testing.T) {
	if Int(42).AsInt() != 42 {
		t.Error("Int round trip")
	}
	if Float(2.5).AsFloat() != 2.5 {
		t.Error("Float round trip")
	}
	if String("orf").AsString() != "orf" {
		t.Error("String round trip")
	}
	if Int(7).AsFloat() != 7.0 {
		t.Error("Int should widen to float")
	}
	if !Null.IsNull() || Int(0).IsNull() {
		t.Error("IsNull")
	}
}

func TestValueAccessorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"AsInt on string":    func() { String("x").AsInt() },
		"AsString on int":    func() { Int(1).AsString() },
		"AsFloat on string":  func() { String("x").AsFloat() },
		"Compare str vs int": func() { String("x").Compare(Int(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestValueFormat(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{Int(-3), "-3"},
		{Float(0.5), "0.5"},
		{String("MAL"), "MAL"},
	}
	for _, tc := range tests {
		if got := tc.v.Format(); got != tc.want {
			t.Errorf("Format(%#v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestValueEqualCrossNumeric(t *testing.T) {
	if !Int(3).Equal(Float(3)) || !Float(3).Equal(Int(3)) {
		t.Error("3 == 3.0 should hold across numeric types")
	}
	if Int(3).Equal(Float(3.5)) {
		t.Error("3 != 3.5")
	}
	if Int(3).Equal(String("3")) {
		t.Error("int should not equal string")
	}
	if !Null.Equal(Null) || Null.Equal(Int(0)) {
		t.Error("NULL equality")
	}
}

func TestValueCompare(t *testing.T) {
	tests := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{Float(1.5), Int(2), -1},
		{String("a"), String("b"), -1},
		{String("b"), String("a"), 1},
		{String("a"), String("a"), 0},
		{Null, Int(1), -1},
		{Int(1), Null, 1},
		{Null, Null, 0},
	}
	for _, tc := range tests {
		if got := tc.a.Compare(tc.b); got != tc.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", tc.a.Format(), tc.b.Format(), got, tc.want)
		}
	}
}

func TestValueHashEqualImpliesSameHash(t *testing.T) {
	if Int(3).Hash() != Float(3).Hash() {
		t.Error("3 and 3.0 must hash equally (they compare equal)")
	}
	if Int(3).Hash() == Int(4).Hash() {
		t.Error("suspicious collision for tiny ints")
	}
	// Property: for random int64 values, int/float hash agreement holds
	// whenever the float image is exact.
	prop := func(v int32) bool {
		return Int(int64(v)).Hash() == Float(float64(v)).Hash()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestValueHashLargeFloat(t *testing.T) {
	// Non-integral and huge floats take the raw-bits path; just make sure
	// the hash is stable and does not panic.
	vals := []float64{math.Pi, 1e300, -1e300, math.Inf(1), math.MaxFloat64}
	for _, f := range vals {
		if Float(f).Hash() != Float(f).Hash() {
			t.Errorf("hash of %g not stable", f)
		}
	}
}

// TestValueSemanticsGolden pins Hash, Equal and Compare over the values
// whose payload layout matters: zero and negative ints, an int past float64's
// exact range, negative zero, NaN, and strings. Routing, join matching and
// sorting all go through these three methods, so a change to how a Value
// stores its payload must leave every entry here as it is.
func TestValueSemanticsGolden(t *testing.T) {
	vals := []Value{Null, Int(0), Int(3), Int(-1), Int(1<<53 + 1),
		Float(3.0), Float(2.5), Float(math.Copysign(0, -1)), Float(math.NaN()),
		String(""), String("YAL001C")}
	hashes := []uint64{
		0xaf63bd4c8601b7df,
		0x529a2cdc8ff533ac,
		0xaf8a81f7b0c3120f,
		0x685cd83ad34b3424,
		0x7201b3e59b40e2ed,
		0xaf8a81f7b0c3120f,
		0x528c54dc8fe93a48,
		0x529a2cdc8ff533ac,
		0x74df74e59db00748,
		0xaf63be4c8601b992,
		0xee29543b49711354,
	}
	// Row i, column j: Equal as 1/0, and Compare as <, =, > or ! (panics).
	matrix := []struct{ equal, compare string }{
		{"10000000000", "=<<<<<<<<<<"},
		{"01000001000", ">=<><<<==!!"},
		{"00100100000", ">>=><=>>=!!"},
		{"00010000000", "><<=<<<<=!!"},
		{"00001000000", ">>>>=>>>=!!"},
		{"00100100000", ">>=><=>>=!!"},
		{"00000010000", ">><><<=>=!!"},
		{"01000001000", ">=<><<<==!!"},
		{"00000000000", ">========!!"},
		{"00000000010", ">!!!!!!!!=<"},
		{"00000000001", ">!!!!!!!!>="},
	}
	compare := func(v, w Value) (c byte) {
		defer func() {
			if recover() != nil {
				c = '!'
			}
		}()
		return "<=>"[v.Compare(w)+1]
	}
	for i, v := range vals {
		if got := v.Hash(); got != hashes[i] {
			t.Errorf("%s.Hash() = %#016x, want %#016x", v.Format(), got, hashes[i])
		}
		for j, w := range vals {
			eq := byte('0')
			if v.Equal(w) {
				eq = '1'
			}
			if want := matrix[i].equal[j]; eq != want {
				t.Errorf("%s.Equal(%s) = %c, want %c", v.Format(), w.Format(), eq, want)
			}
			if got, want := compare(v, w), matrix[i].compare[j]; got != want {
				t.Errorf("%s.Compare(%s) = %c, want %c", v.Format(), w.Format(), got, want)
			}
		}
	}
}

// TestValueSize pins the layout: one type tag, one payload word shared by
// ints and floats, and a string header.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

func TestValueHashDeterminism(t *testing.T) {
	prop := func(s string) bool { return String(s).Hash() == String(s).Hash() }
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

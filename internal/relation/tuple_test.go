package relation

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randTuple produces an arbitrary tuple for property tests; it is the shared
// generator used by the codec tests below too.
func randTuple(r *rand.Rand) Tuple {
	n := r.Intn(6)
	t := make(Tuple, n)
	for i := range t {
		switch r.Intn(4) {
		case 0:
			t[i] = Null
		case 1:
			t[i] = Int(r.Int63() - r.Int63())
		case 2:
			t[i] = Float(r.NormFloat64() * 1e6)
		default:
			b := make([]byte, r.Intn(20))
			for j := range b {
				b[j] = byte('A' + r.Intn(26))
			}
			t[i] = String(string(b))
		}
	}
	return t
}

// tupleGen adapts randTuple to testing/quick.
type tupleGen struct{ T Tuple }

func (tupleGen) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(tupleGen{T: randTuple(r)})
}

func TestTupleCloneIsIndependent(t *testing.T) {
	orig := Tuple{Int(1), String("x")}
	c := orig.Clone()
	c[0] = Int(99)
	if orig[0].AsInt() != 1 {
		t.Fatal("Clone shares backing array")
	}
	if !orig.Equal(Tuple{Int(1), String("x")}) {
		t.Fatal("original mutated")
	}
}

func TestAppendDoubling(t *testing.T) {
	// Below 1024 tuples the buffer grows as append grows it; from there its
	// capacity doubles, by one tuple or by a batch, and keeps every tuple.
	var got, want []Tuple
	for i := 0; i < 5000; i++ {
		one := Tuple{Int(int64(i))}
		before := cap(got)
		if i%3 == 0 {
			got = AppendDoubling(got, one)
		} else {
			got = AppendDoubling(got, one, one)
			want = append(want, one)
		}
		want = append(want, one)
		if grew := cap(got) != before; grew && before >= 1024 && cap(got) != 2*before {
			t.Fatalf("at %d tuples the capacity went %d -> %d, want double", len(got), before, cap(got))
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the buffer's tuples differ from append's")
	}
	small := AppendDoubling(make([]Tuple, 0, 512)[:512], Tuple{})
	if plain := append(make([]Tuple, 0, 512)[:512], Tuple{}); cap(small) != cap(plain) {
		t.Fatalf("below 1024 tuples: capacity %d, append gives %d", cap(small), cap(plain))
	}
}

func TestTupleProject(t *testing.T) {
	c := Tuple{Int(1), Int(2), String("x")}
	p := c.Project([]int{2, 0})
	if !p.Equal(Tuple{String("x"), Int(1)}) {
		t.Fatalf("Project = %v", p.Format())
	}
}

func TestTupleEqual(t *testing.T) {
	if !(Tuple{Int(1)}).Equal(Tuple{Float(1)}) {
		t.Error("numeric cross-type tuple equality should hold")
	}
	if (Tuple{Int(1)}).Equal(Tuple{Int(1), Int(2)}) {
		t.Error("length mismatch must not be equal")
	}
}

func TestTupleHashKeyOnly(t *testing.T) {
	// Same join key, different payload => same hash.
	a := Tuple{String("ORF1"), String("payloadA")}
	b := Tuple{String("ORF1"), String("payloadB")}
	if a.Hash([]int{0}) != b.Hash([]int{0}) {
		t.Error("hash must depend only on key ordinals")
	}
	if a.Hash([]int{0, 1}) == b.Hash([]int{0, 1}) {
		t.Error("hash should differ when payload is part of the key")
	}
}

func TestTupleHashProperty(t *testing.T) {
	// Property: equal key values => equal hash, for random tuples.
	prop := func(g tupleGen) bool {
		tp := g.T
		if len(tp) == 0 {
			return true
		}
		keys := []int{0}
		return tp.Hash(keys) == tp.Clone().Hash(keys)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTupleFormatAndKey(t *testing.T) {
	tp := Tuple{Int(1), String("x"), Null}
	if got := tp.Format(); got != "(1, x, NULL)" {
		t.Errorf("Format = %q", got)
	}
	// Key must distinguish types even when Format collides.
	if (Tuple{Int(1)}).Key() == (Tuple{String("1")}).Key() {
		t.Error("Key must be type-aware")
	}
}

func TestTupleByteSizePositive(t *testing.T) {
	prop := func(g tupleGen) bool {
		sz := g.T.ByteSize()
		return sz >= 2 && sz >= len(g.T)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

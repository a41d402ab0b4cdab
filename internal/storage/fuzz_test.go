package storage

import (
	"bytes"
	"testing"

	"repro/internal/relation"
)

// FuzzSpillRunRoundTrip mirrors the transport's FuzzTupleCodecRoundTrip at
// the spill layer: any tuple sequence that decodes from the fuzzed bytes
// must survive a write-seal-read cycle through a run byte-exactly (block
// framing, arena reuse and codec composition must not corrupt anything —
// spilled operator state replays from these runs).
func FuzzSpillRunRoundTrip(f *testing.F) {
	f.Add(relation.EncodeTuple(relation.Tuple{}))
	f.Add(relation.EncodeTuple(relation.Tuple{relation.Null}))
	f.Add(relation.EncodeTuple(relation.Tuple{relation.Int(42), relation.Int(-1)}))
	f.Add(relation.EncodeTuple(relation.Tuple{relation.Float(3.25), relation.String("ORF YAL00007C")}))
	f.Add(append(
		relation.EncodeTuple(relation.Tuple{relation.Int(7)}),
		relation.EncodeTuple(relation.Tuple{relation.String("x"), relation.Null})...))
	f.Add([]byte{2, 1})
	f.Add([]byte{1, 99})
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Decode as many whole tuples as the input holds; corrupt tails are
		// the codec's concern (covered by its own fuzzer), not the run's.
		var tuples []relation.Tuple
		rest := raw
		for len(rest) > 0 {
			tp, tail, err := relation.DecodeTuple(new(relation.Arena), rest)
			if err != nil {
				break
			}
			tuples = append(tuples, tp)
			rest = tail
			if len(tuples) >= 256 {
				break
			}
		}
		if len(tuples) == 0 {
			t.Skip()
		}
		b := NewMemory()
		defer b.Close()
		w, err := b.Create("fuzz")
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range tuples {
			if err := w.Append(tp); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("seal: %v", err)
		}
		r, err := b.Open("fuzz")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for i, want := range tuples {
			got, ok, err := r.Next()
			if err != nil || !ok {
				t.Fatalf("tuple %d: ok=%v err=%v", i, ok, err)
			}
			if !bytes.Equal(relation.EncodeTuple(want), relation.EncodeTuple(got)) {
				t.Fatalf("tuple %d changed across the run:\n%x\n%x",
					i, relation.EncodeTuple(want), relation.EncodeTuple(got))
			}
		}
		if _, ok, _ := r.Next(); ok {
			t.Fatal("run yielded extra tuples")
		}
	})
}

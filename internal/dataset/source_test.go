package dataset

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
)

// drainTable reads a stored table block by block, decoding every tuple
// with the plain single-tuple reference decoder.
func drainTable(t *testing.T, tbl *Table) []relation.Tuple {
	t.Helper()
	br, ok, err := tbl.OpenBlocks()
	if err != nil || !ok {
		t.Fatalf("OpenBlocks: ok=%v err=%v", ok, err)
	}
	defer br.Close()
	var arena relation.Arena
	var out []relation.Tuple
	for i := 0; i < br.Blocks(); i++ {
		data, err := br.ReadBlock(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		n, rest, err := relation.TupleCount(data)
		if err != nil {
			t.Fatal(err)
		}
		for ; n > 0; n-- {
			var tp relation.Tuple
			if tp, rest, err = relation.DecodeTuple(&arena, rest); err != nil {
				t.Fatal(err)
			}
			out = append(out, tp)
		}
		if len(rest) != 0 {
			t.Fatalf("block %d: %d trailing bytes", i, len(rest))
		}
	}
	return out
}

func TestStoredTablesMatchInMemoryGenerators(t *testing.T) {
	backend := storage.NewMemory()
	defer backend.Close()

	memSeqs := ProteinSequences(200, 7)
	stored, err := WriteProteinSequences(backend, "tables/seqs", 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := memSeqs.OpenBlocks(); ok {
		t.Fatal("in-memory table claims a stored run")
	}
	if stored.Cardinality() != memSeqs.Cardinality() {
		t.Fatalf("cardinality %d != %d", stored.Cardinality(), memSeqs.Cardinality())
	}
	got := drainTable(t, stored)
	for i := range memSeqs.Tuples {
		if !memSeqs.Tuples[i].Equal(got[i]) {
			t.Fatalf("sequence %d diverged: %v vs %v", i, memSeqs.Tuples[i].Format(), got[i].Format())
		}
	}

	memInts := ProteinInteractions(300, 200, 7)
	storedInts, err := WriteProteinInteractions(backend, "tables/ints", 300, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	gotInts := drainTable(t, storedInts)
	if len(gotInts) != 300 {
		t.Fatalf("read %d interactions", len(gotInts))
	}
	for i := range memInts.Tuples {
		if !memInts.Tuples[i].Equal(gotInts[i]) {
			t.Fatalf("interaction %d diverged", i)
		}
	}
	if storedInts.AvgTupleBytes() == 0 {
		t.Fatal("stored table lost its byte statistics")
	}
}

func TestStoredTableOnPosixBackend(t *testing.T) {
	backend, err := storage.NewPosix(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	stored, err := WriteProteinSequences(backend, "seqs", 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	mem := ProteinSequences(50, 3)
	got := drainTable(t, stored)
	for i := range mem.Tuples {
		if !mem.Tuples[i].Equal(got[i]) {
			t.Fatalf("tuple %d diverged on posix", i)
		}
	}
	// A second independent reader re-reads from the start.
	again := drainTable(t, stored)
	if len(again) != 50 {
		t.Fatalf("second reader read %d tuples", len(again))
	}
}

// TestSliceCursorMatchesTuples pins the in-memory representation: no block
// reader (ok=false is how a scan tells the two representations apart) and
// Tuples holding exactly the generator's rows.
func TestSliceCursorMatchesTuples(t *testing.T) {
	tbl := ProteinSequences(10, 1)
	if r, ok, err := tbl.OpenBlocks(); r != nil || ok || err != nil {
		t.Fatalf("in-memory OpenBlocks = (%v, %v, %v), want (nil, false, nil)", r, ok, err)
	}
	if len(tbl.Tuples) != 10 {
		t.Fatalf("table holds %d of 10 tuples", len(tbl.Tuples))
	}
	gen := sequencesGen(1)
	for i, tp := range tbl.Tuples {
		if want := gen(i); !want.Equal(tp) {
			t.Fatalf("tuple %d: %v, generator produced %v", i, tp.Format(), want.Format())
		}
	}
}

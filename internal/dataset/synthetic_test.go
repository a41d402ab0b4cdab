package dataset

import (
	"bytes"
	"testing"

	"repro/internal/storage"
)

// runBytes concatenates every block payload of a stored run — the raw
// generator output after framing, used for byte-identity assertions.
func runBytes(t *testing.T, b storage.Backend, name string) []byte {
	t.Helper()
	r, err := b.OpenBlocks(name)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var out []byte
	for i := 0; i < r.Blocks(); i++ {
		block, err := r.ReadBlock(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, block...)
	}
	return out
}

func TestGeneratorsDeterministic(t *testing.T) {
	writers := map[string]func(b storage.Backend, run string) error{
		"sequences": func(b storage.Backend, run string) error {
			_, err := WriteProteinSequences(b, run, 1000, 7)
			return err
		},
		"interactions": func(b storage.Backend, run string) error {
			_, err := WriteProteinInteractions(b, run, 1500, 1000, 7)
			return err
		},
		"interactions-zipf": func(b storage.Backend, run string) error {
			_, err := WriteProteinInteractionsZipf(b, run, 1500, 1000, 1.2, 7)
			return err
		},
		"synthetic-uniform": func(b storage.Backend, run string) error {
			_, err := WriteSynthetic(b, run, SyntheticSpec{Rows: 1000, KeyDomain: 100, PayloadBytes: 48, Seed: 7})
			return err
		},
		"synthetic-zipf": func(b storage.Backend, run string) error {
			_, err := WriteSynthetic(b, run, SyntheticSpec{Rows: 1000, KeyDomain: 100, ZipfS: 1.3, PayloadBytes: 48, Seed: 7})
			return err
		},
	}
	for name, write := range writers {
		t.Run(name, func(t *testing.T) {
			a, b := storage.NewMemory(), storage.NewMemory()
			defer a.Close()
			defer b.Close()
			if err := write(a, "run"); err != nil {
				t.Fatal(err)
			}
			if err := write(b, "run"); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(runBytes(t, a, "run"), runBytes(t, b, "run")) {
				t.Fatal("same seed must produce byte-identical runs")
			}
		})
	}
}

func TestGeneratorSeedChangesOutput(t *testing.T) {
	a, b := storage.NewMemory(), storage.NewMemory()
	defer a.Close()
	defer b.Close()
	if _, err := WriteSynthetic(a, "run", SyntheticSpec{Rows: 500, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSynthetic(b, "run", SyntheticSpec{Rows: 500, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(runBytes(t, a, "run"), runBytes(t, b, "run")) {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestSyntheticStoredMatchesMaterialized(t *testing.T) {
	sp := SyntheticSpec{Name: "events", Rows: 2000, KeyDomain: 64, ZipfS: 1.5, PayloadBytes: 40, Seed: 11}
	mem := Synthetic(sp)
	backend := storage.NewMemory()
	defer backend.Close()
	stored, err := WriteSynthetic(backend, "events", sp)
	if err != nil {
		t.Fatal(err)
	}
	if stored.Cardinality() != mem.Cardinality() {
		t.Fatalf("cardinality %d != %d", stored.Cardinality(), mem.Cardinality())
	}
	got := drainTable(t, stored)
	for i := range mem.Tuples {
		if !mem.Tuples[i].Equal(got[i]) {
			t.Fatalf("tuple %d diverged: %v vs %v", i, mem.Tuples[i].Format(), got[i].Format())
		}
	}
}

func TestDemoStoredMatchesDemoSized(t *testing.T) {
	backend := storage.NewMemory()
	defer backend.Close()
	stored, err := DemoStored(backend, 300, 470)
	if err != nil {
		t.Fatal(err)
	}
	mem := DemoSized(300, 470)
	for _, name := range mem.Names() {
		mt, err := mem.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		st, err := stored.Table(name)
		if err != nil {
			t.Fatalf("stored demo lacks %q: %v", name, err)
		}
		if st.TotalBytes() <= 0 {
			t.Fatalf("%q TotalBytes = %d", name, st.TotalBytes())
		}
		got := drainTable(t, st)
		if len(got) != len(mt.Tuples) {
			t.Fatalf("%q: %d of %d tuples", name, len(got), len(mt.Tuples))
		}
		for i := range mt.Tuples {
			if !mt.Tuples[i].Equal(got[i]) {
				t.Fatalf("%q tuple %d diverged", name, i)
			}
		}
	}
}

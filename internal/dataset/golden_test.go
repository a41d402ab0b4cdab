package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
)

// goldenDigests pins the generators' output byte for byte: the SHA-256 of
// each stored run's block payloads, and of DemoSized's tuples encoded in
// table order. A change to how rows are produced must leave every digest
// as it is; a change to what they hold must say so by editing this table.
var goldenDigests = map[string]string{
	"sequences":            "c9ca24b8e2d99183f8b01691eb08bd993b7c37148b542d200180078dadcbc0c5",
	"sequences-past-99999": "a5d54a67a34a32a120e0183ae720735aaba346ef8b4d1a266c6af1bf34dfdbc1",
	"interactions":         "a50e955f4d9c180ef672714652bab2c0a8d151e3964e2fa9ff7142547a49859d",
	"interactions-zipf":    "62872db91b5edb61d01c21bc571370e39a4fdc00bc1a64421a93bf147a000fbe",
	"synthetic-uniform":    "1e82895e3c67e8b6341e832756d229805a83717d0a033402e1bf492c945d3129",
	"synthetic-zipf":       "b74a1f066a4dfc4e621cf4dbd8d8d152e8d90b3161711b7a1e0dbedd4da84fb0",
	"synthetic-wide-keys":  "73145a0c3e1099a71aed84ab91f589334261ee3d80812db4652364b8d27c7161",
	"demo-sized-3000x4700": "06210f766b81790d9632365ad6953f47ad9666795c302104864da1c0298bfca3",
}

func TestGeneratorsGolden(t *testing.T) {
	writers := map[string]func(b storage.Backend, run string) error{
		"sequences": func(b storage.Backend, run string) error {
			_, err := WriteProteinSequences(b, run, 1000, 7)
			return err
		},
		// Past index 99 999 the ORF names widen from five digits to six.
		"sequences-past-99999": func(b storage.Backend, run string) error {
			_, err := WriteProteinSequences(b, run, 100_050, 3)
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
		// Keys past 99 999 999 widen from eight digits to nine or ten, and
		// a payload larger than a generator chunk still comes out whole.
		"synthetic-wide-keys": func(b storage.Backend, run string) error {
			_, err := WriteSynthetic(b, run, SyntheticSpec{Name: "wide", Rows: 300, KeyDomain: 1 << 31, PayloadBytes: 70_000, Seed: 5})
			return err
		},
	}
	got := map[string]string{}
	for name, write := range writers {
		b := storage.NewMemory()
		if err := write(b, "run"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(runBytes(t, b, "run"))
		got[name] = hex.EncodeToString(sum[:])
		_ = b.Close()
	}
	demo := DemoSized(3000, 4700)
	h := sha256.New()
	var buf []byte
	for _, name := range demo.Names() {
		tbl, err := demo.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(name))
		for _, tp := range tbl.Tuples {
			buf = relation.AppendTuple(buf[:0], tp)
			h.Write(buf)
		}
	}
	got["demo-sized-3000x4700"] = hex.EncodeToString(h.Sum(nil))

	for name, want := range goldenDigests {
		if got[name] != want {
			t.Errorf("%s: digest %s, want %s", name, got[name], want)
		}
	}
	if len(got) != len(goldenDigests) {
		t.Errorf("computed %d digests, table pins %d", len(got), len(goldenDigests))
	}
}

package storage

import (
	"testing"

	"repro/internal/relation"
)

// backends returns one fresh instance of every Backend implementation.
func backends(t *testing.T) map[string]Backend {
	t.Helper()
	posix, err := NewPosix(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Backend{"memory": NewMemory(), "posix": posix}
}

func testTuples(n int) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := range out {
		out[i] = relation.Tuple{
			relation.Int(int64(i)),
			relation.Float(float64(i) / 3),
			relation.String("payload payload payload"),
			relation.Null,
		}
	}
	return out
}

func TestRunRoundTrip(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			want := testTuples(5000) // several blocks at the 64KiB target
			w, err := b.Create("q1.f1-i0/join-1-build")
			if err != nil {
				t.Fatal(err)
			}
			if err := w.AppendAll(want); err != nil {
				t.Fatal(err)
			}
			if w.Tuples() != int64(len(want)) {
				t.Fatalf("writer counted %d tuples", w.Tuples())
			}
			if w.Bytes() == 0 {
				t.Fatal("writer reports zero bytes")
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := b.OpenBlocks("q1.f1-i0/join-1-build")
			if err != nil {
				t.Fatal(err)
			}
			got := decodeBlocks(t, r)
			if len(got) != len(want) {
				t.Fatalf("run yielded %d tuples, want %d", len(got), len(want))
			}
			for i, wt := range want {
				if !tuplesIdentical(wt, got[i]) {
					t.Fatalf("tuple %d: %v != %v", i, wt.Format(), got[i].Format())
				}
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// tuplesIdentical compares by canonical encoding (Tuple.Equal is NaN-hostile
// and type-coercing; spill correctness is byte-exactness).
func tuplesIdentical(a, b relation.Tuple) bool {
	ea, eb := relation.EncodeTuple(a), relation.EncodeTuple(b)
	return string(ea) == string(eb)
}

func TestCreateExistingFails(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			w, err := b.Create("dup")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.Create("dup"); err == nil {
				t.Fatal("second Create of one name must fail")
			}
			_ = w.Close()
		})
	}
}

func TestOpenUnsealedFails(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			w, err := b.Create("open-race")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.OpenBlocks("open-race"); err == nil {
				t.Fatal("OpenBlocks before Close must fail")
			}
			_ = w.Close()
			r, err := b.OpenBlocks("open-race")
			if err != nil {
				t.Fatalf("OpenBlocks after seal: %v", err)
			}
			_ = r.Close()
		})
	}
}

// TestMemoryOpenBlocksWhileWriting opens a memory run while another
// goroutine is still filling and sealing it: OpenBlocks must see the run
// either unsealed or whole, reading its frames and seal flag under the lock
// the writer takes (run with -race).
func TestMemoryOpenBlocksWhileWriting(t *testing.T) {
	m := NewMemory()
	defer m.Close()
	want := testTuples(2000)
	w, err := m.Create("filling")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for _, tp := range want {
			if err := w.Append(tp); err != nil {
				done <- err
				return
			}
		}
		done <- w.Close()
	}()
	var r BlockReader
	for r == nil {
		if r, err = m.OpenBlocks("filling"); err != nil {
			r = nil
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := decodeBlocks(t, r)
	if len(got) != len(want) {
		t.Fatalf("opened run holds %d of %d tuples", len(got), len(want))
	}
	for i, wt := range want {
		if !tuplesIdentical(wt, got[i]) {
			t.Fatalf("tuple %d: %v != %v", i, wt.Format(), got[i].Format())
		}
	}
}

func TestRemoveIdempotentAndMatching(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			for _, n := range []string{"q7.f1-i0/join-1", "q7.f1-i0/join-2", "q8.f1-i0/sort-1"} {
				w, err := b.Create(n)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Append(relation.Tuple{relation.Int(1)}); err != nil {
					t.Fatal(err)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Remove("nonexistent"); err != nil {
				t.Fatalf("Remove of absent run must be a no-op: %v", err)
			}
			removed, err := b.RemoveMatching("q7.")
			if err != nil {
				t.Fatal(err)
			}
			if removed != 2 {
				t.Fatalf("RemoveMatching removed %d, want 2", removed)
			}
			left, err := b.List()
			if err != nil {
				t.Fatal(err)
			}
			if len(left) != 1 || left[0] != "q8.f1-i0/sort-1" {
				t.Fatalf("leftover runs: %v", left)
			}
		})
	}
}

func TestPosixEscapesHostileNames(t *testing.T) {
	b, err := NewPosix(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// Slashes, dots and traversal attempts must stay inside the directory
	// and round-trip through List.
	names := []string{"../escape", "a/b/c", "weird %20 name", ".hidden"}
	for _, n := range names {
		w, err := b.Create(n)
		if err != nil {
			t.Fatalf("Create(%q): %v", n, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(names) {
		t.Fatalf("List = %v", got)
	}
}

func TestBudgetAccounting(t *testing.T) {
	b := NewBudget(100)
	if b.Over() {
		t.Fatal("fresh budget must not be over")
	}
	b.Reserve(60)
	if b.Over() {
		t.Fatal("60/100 must not be over")
	}
	b.Reserve(60)
	if !b.Over() {
		t.Fatal("120/100 must be over")
	}
	b.Release(40)
	if b.Over() {
		t.Fatal("80/100 must not be over")
	}
	if b.Inflight() != 80 {
		t.Fatalf("inflight = %d", b.Inflight())
	}
	if b.Limit() != 100 {
		t.Fatalf("limit = %d", b.Limit())
	}
}

func TestBudgetNilAndUnlimited(t *testing.T) {
	var nilB *Budget
	nilB.Reserve(1 << 40)
	nilB.Release(5)
	if nilB.Over() || nilB.Limit() != 0 || nilB.Inflight() != 0 {
		t.Fatal("nil budget must be inert")
	}
	un := NewBudget(0)
	un.Reserve(1 << 40)
	if un.Over() {
		t.Fatal("unlimited budget must never be over")
	}
	un.Release(1 << 40)
}

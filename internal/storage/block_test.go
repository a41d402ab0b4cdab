package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"testing"

	"repro/internal/qerr"
	"repro/internal/relation"
)

// blockBackends returns one fresh instance of every Backend implementation.
func blockBackends(t *testing.T) map[string]Backend {
	t.Helper()
	posix, err := NewPosix(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Backend{"memory": NewMemory(), "posix": posix}
}

// writeRun writes and seals tuples as the named run.
func writeRun(t *testing.T, b Backend, name string, tuples []relation.Tuple) {
	t.Helper()
	w, err := b.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendAll(tuples); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// decodeBlocks reads every block of r in order and decodes the tuples with
// the plain single-tuple reference decoder.
func decodeBlocks(t *testing.T, r BlockReader) []relation.Tuple {
	t.Helper()
	var arena relation.Arena
	var out []relation.Tuple
	var buf []byte
	for i := 0; i < r.Blocks(); i++ {
		block, err := r.ReadBlock(i, buf)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if len(block) != r.BlockSize(i) {
			t.Fatalf("block %d: %d bytes, BlockSize says %d", i, len(block), r.BlockSize(i))
		}
		n, rest, err := relation.TupleCount(block)
		if err != nil {
			t.Fatalf("block %d count: %v", i, err)
		}
		for ; n > 0; n-- {
			tp, tail, err := relation.DecodeTuple(&arena, rest)
			if err != nil {
				t.Fatalf("block %d tuple: %v", i, err)
			}
			out = append(out, tp)
			rest = tail
		}
		buf = block
	}
	return out
}

// TestBlockReaderMatchesCursor holds the block-granular reader against the
// written tuples, decoded with the plain single-tuple reference decoder.
func TestBlockReaderMatchesCursor(t *testing.T) {
	for name, b := range blockBackends(t) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			want := testTuples(5000) // several blocks at the 64KiB target
			writeRun(t, b, "tbl", want)
			r, err := b.OpenBlocks("tbl")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if r.Blocks() < 2 {
				t.Fatalf("expected a multi-block run, got %d blocks", r.Blocks())
			}
			got := decodeBlocks(t, r)
			if len(got) != len(want) {
				t.Fatalf("decoded %d of %d tuples", len(got), len(want))
			}
			for i := range want {
				if !tuplesIdentical(want[i], got[i]) {
					t.Fatalf("tuple %d diverged", i)
				}
			}
		})
	}
}

// TestRunWriterEncodesOnAppend pins Append's contract: it keeps no
// reference to the tuple, so a caller that overwrites one scratch record's
// Values between appends still reads back every row it appended.
func TestRunWriterEncodesOnAppend(t *testing.T) {
	for name, b := range blockBackends(t) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			w, err := b.Create("scratch")
			if err != nil {
				t.Fatal(err)
			}
			rec := relation.Tuple{relation.Int(1), relation.String("first")}
			want := []relation.Tuple{rec.Clone()}
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
			rec[0], rec[1] = relation.Int(2), relation.String("second")
			want = append(want, rec.Clone())
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
			rec[0], rec[1] = relation.Null, relation.String("overwritten before the flush")
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := b.OpenBlocks("scratch")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			got := decodeBlocks(t, r)
			if len(got) != len(want) {
				t.Fatalf("run yielded %d tuples, want %d", len(got), len(want))
			}
			for i := range want {
				if !tuplesIdentical(got[i], want[i]) {
					t.Fatalf("row %d: %v, want %v", i, got[i].Format(), want[i].Format())
				}
			}
		})
	}
}

// TestRunFramingPerBlock holds a run spanning flush boundaries byte for byte
// against its framing: one len:uint32le ++ relation.AppendTuples(block) frame
// per block, a block closing once its tuples' Tuple.ByteSize reaches
// blockTarget.
func TestRunFramingPerBlock(t *testing.T) {
	ts := testTuples(3000)
	var want [][]byte
	for start, pend, i := 0, 0, 0; i < len(ts); i++ {
		pend += ts[i].ByteSize()
		if pend >= blockTarget || i == len(ts)-1 {
			want = append(want, relation.AppendTuples(nil, ts[start:i+1]))
			start, pend = i+1, 0
		}
	}
	if len(want) < 3 {
		t.Fatalf("%d blocks: the run must span at least two flushes", len(want))
	}
	var frames []byte
	for _, payload := range want {
		frames = binary.LittleEndian.AppendUint32(frames, uint32(len(payload)))
		frames = append(frames, payload...)
	}
	for name, b := range blockBackends(t) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			writeRun(t, b, "framed", ts)
			var stored []byte
			switch impl := b.(type) {
			case *Memory:
				stored = bytes.Join(impl.runs["framed"].frames, nil)
			case *Posix:
				data, err := os.ReadFile(impl.path("framed"))
				if err != nil {
					t.Fatal(err)
				}
				stored = data
			}
			if !bytes.Equal(stored, frames) {
				t.Fatalf("stored run (%d bytes) differs from its %d frames (%d bytes)", len(stored), len(want), len(frames))
			}
			r, err := b.OpenBlocks("framed")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if r.Blocks() != len(want) {
				t.Fatalf("%d blocks, want %d", r.Blocks(), len(want))
			}
			for i, payload := range want {
				got, err := r.ReadBlock(i, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, payload) {
					t.Fatalf("block %d differs from AppendTuples of its tuples", i)
				}
			}
		})
	}
}

func TestBlockReaderCloseIdempotent(t *testing.T) {
	for name, b := range blockBackends(t) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			writeRun(t, b, "tbl", testTuples(10))
			r, err := b.OpenBlocks("tbl")
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil {
				t.Fatalf("second Close must be a no-op: %v", err)
			}
		})
	}
}

func TestBlockReaderUnsealedAndMissing(t *testing.T) {
	for name, b := range blockBackends(t) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			if _, err := b.OpenBlocks("absent"); err == nil {
				t.Fatal("OpenBlocks of a missing run must fail")
			}
			w, err := b.Create("writing")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.OpenBlocks("writing"); err == nil {
				t.Fatal("OpenBlocks before seal must fail")
			}
			_ = w.Close()
		})
	}
}

// corruptors mutate a sealed run's raw bytes in ways OpenBlocks must reject
// with a typed storage error, not a panic or a silent short read.
var corruptors = []struct {
	name string
	mut  func(data []byte) []byte
}{
	{"truncated-header", func(data []byte) []byte { return data[:len(data)-1] }},
	{"truncated-body", func(data []byte) []byte {
		// Keep the first frame's header but cut its body short.
		return data[:4+2]
	}},
	{"oversized-length", func(data []byte) []byte {
		binary.LittleEndian.PutUint32(data[:4], uint32(len(data)))
		return data
	}},
}

// corruptMemory rewrites a sealed memory run in place: its frames are
// joined, mutated, and stored back as a list of one frame.
func corruptMemory(t *testing.T, m *Memory, name string, mut func([]byte) []byte) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	run := m.runs[name]
	if run == nil || !run.sealed {
		t.Fatalf("run %q not sealed", name)
	}
	run.frames = [][]byte{mut(bytes.Join(run.frames, nil))}
}

// corruptPosix rewrites a sealed posix run file.
func corruptPosix(t *testing.T, p *Posix, name string, mut func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(p.path(name))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p.path(name), mut(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// wantStorageErr asserts err is a typed qerr storage failure.
func wantStorageErr(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("corrupt run must surface an error")
	}
	var qe *qerr.Error
	if !errors.As(err, &qe) || qe.Kind != qerr.KindStorage {
		t.Fatalf("want qerr.KindStorage, got %T: %v", err, err)
	}
}

func TestCorruptRunTypedErrors(t *testing.T) {
	for _, c := range corruptors {
		t.Run(c.name, func(t *testing.T) {
			for backend, b := range blockBackends(t) {
				t.Run(backend, func(t *testing.T) {
					defer b.Close()
					writeRun(t, b, "tbl", testTuples(500))
					switch impl := b.(type) {
					case *Memory:
						corruptMemory(t, impl, "tbl", c.mut)
					case *Posix:
						corruptPosix(t, impl, "tbl", c.mut)
					}
					// The block reader validates the frame chain up front.
					r, err := b.OpenBlocks("tbl")
					if err == nil {
						_ = r.Close()
						t.Fatal("OpenBlocks accepted a corrupt frame chain")
					}
					wantStorageErr(t, err)
				})
			}
		})
	}
}

func TestPosixReadBlockConcurrent(t *testing.T) {
	p, err := NewPosix(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	want := testTuples(5000)
	writeRun(t, p, "tbl", want)
	r, err := p.OpenBlocks("tbl")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	serial := make([][]byte, r.Blocks())
	for i := range serial {
		block, err := r.ReadBlock(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = bytes.Clone(block)
	}
	const workers = 4
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			var buf []byte
			for i := 0; i < r.Blocks(); i++ {
				block, err := r.ReadBlock(i, buf)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(block, serial[i]) {
					errs <- errors.New("concurrent read diverged from serial")
					return
				}
				buf = block
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Posix is the filesystem Backend: each run is one file under a spill
// directory, written through a buffered writer and read back a block at a
// time with ReadAt. Run names are escaped into flat file names (the '/'
// hierarchy separator becomes part of the escaped name), so prefix cleanup
// stays a directory scan.
type Posix struct {
	dir string

	mu     sync.Mutex
	closed bool
	open   map[string]bool // runs currently open for writing
}

// NewPosix returns a backend storing runs under dir, creating it if needed.
func NewPosix(dir string) (*Posix, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: spill dir: %w", err)
	}
	return &Posix{dir: dir, open: make(map[string]bool)}, nil
}

// escapeRun maps a run name to a flat file name: every byte outside
// [A-Za-z0-9.-] is rewritten as %XX, so distinct names stay distinct and
// escaping preserves prefix relationships ('/' always escapes the same way).
func escapeRun(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '-':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02x", c)
		}
	}
	return b.String() + ".run"
}

// unescapeRun inverts escapeRun.
func unescapeRun(file string) (string, bool) {
	name, ok := strings.CutSuffix(file, ".run")
	if !ok {
		return "", false
	}
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		if name[i] != '%' {
			b.WriteByte(name[i])
			continue
		}
		if i+2 >= len(name) {
			return "", false
		}
		var c byte
		if _, err := fmt.Sscanf(name[i+1:i+3], "%02x", &c); err != nil {
			return "", false
		}
		b.WriteByte(c)
		i += 2
	}
	return b.String(), true
}

func (p *Posix) path(name string) string {
	return filepath.Join(p.dir, escapeRun(name))
}

// Create implements Backend.
func (p *Posix) Create(name string) (RunWriter, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("storage: posix backend closed")
	}
	p.open[name] = true
	p.mu.Unlock()
	f, err := os.OpenFile(p.path(name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		p.mu.Lock()
		delete(p.open, name)
		p.mu.Unlock()
		return nil, fmt.Errorf("storage: create run: %w", err)
	}
	run := &posixRun{p: p, name: name, f: f, bw: bufio.NewWriterSize(f, 128<<10)}
	run.sink = run
	return &run.blockWriter, nil
}

// posixRun is a run being written to its file. It is its own writer's sink.
type posixRun struct {
	blockWriter
	p    *Posix
	name string
	f    *os.File
	bw   *bufio.Writer
}

// put implements blockSink.
func (r *posixRun) put(block []byte) error {
	_, err := r.bw.Write(block)
	return err
}

// seal implements blockSink: it flushes and closes the file, after which
// OpenBlocks accepts the run.
func (r *posixRun) seal() error {
	r.p.mu.Lock()
	delete(r.p.open, r.name)
	r.p.mu.Unlock()
	if err := r.bw.Flush(); err != nil {
		_ = r.f.Close()
		return err
	}
	return r.f.Close()
}

// OpenBlocks implements Backend. One sequential header scan validates
// the frame chain and builds the offset index; ReadBlock then serves any
// block via ReadAt, which is safe for concurrent calls on the shared file
// handle — morsel workers share one reader.
func (p *Posix) OpenBlocks(name string) (BlockReader, error) {
	p.mu.Lock()
	writing := p.open[name]
	p.mu.Unlock()
	if writing {
		return nil, fmt.Errorf("storage: run %q is not sealed", name)
	}
	f, err := os.Open(p.path(name))
	if err != nil {
		return nil, fmt.Errorf("storage: open run: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("storage: stat run: %w", err)
	}
	size := st.Size()
	var offs []int64
	var sizes []int
	var hdr [4]byte
	for off := int64(0); off < size; {
		if size-off < 4 {
			_ = f.Close()
			return nil, corruptRun(name, "truncated block header")
		}
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			_ = f.Close()
			return nil, corruptRun(name, "block header: %w", err)
		}
		n := int64(binary.LittleEndian.Uint32(hdr[:]))
		if n > size-off-4 {
			_ = f.Close()
			return nil, corruptRun(name, "bad block length %d", n)
		}
		offs = append(offs, off+4)
		sizes = append(sizes, int(n))
		off += 4 + n
	}
	return &posixBlockReader{name: name, f: f, offs: offs, sizes: sizes}, nil
}

// posixBlockReader serves block payloads of one sealed run file via ReadAt.
// The index is immutable after construction; Close is idempotent and
// guarded, so concurrent readers racing a teardown see either a served read
// or a typed error, never a double-close.
type posixBlockReader struct {
	name  string
	f     *os.File
	offs  []int64
	sizes []int

	mu     sync.Mutex
	closed bool
}

// Blocks implements BlockReader.
func (r *posixBlockReader) Blocks() int { return len(r.offs) }

// BlockSize implements BlockReader.
func (r *posixBlockReader) BlockSize(i int) int {
	if i < 0 || i >= len(r.sizes) {
		return 0
	}
	return r.sizes[i]
}

// ReadBlock implements BlockReader.
func (r *posixBlockReader) ReadBlock(i int, buf []byte) ([]byte, error) {
	if i < 0 || i >= len(r.offs) {
		return nil, corruptRun(r.name, "block %d out of range [0,%d)", i, len(r.offs))
	}
	r.mu.Lock()
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("storage: run %q: read after close", r.name)
	}
	n := r.sizes[i]
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := r.f.ReadAt(buf, r.offs[i]); err != nil {
		return nil, corruptRun(r.name, "block body: %w", err)
	}
	return buf, nil
}

// Close implements BlockReader; idempotent.
func (r *posixBlockReader) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	return r.f.Close()
}

// Remove implements Backend.
func (p *Posix) Remove(name string) error {
	err := os.Remove(p.path(name))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("storage: remove run: %w", err)
	}
	return nil
}

// RemoveMatching implements Backend.
func (p *Posix) RemoveMatching(prefix string) (int, error) {
	names, err := p.List()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, name := range listMatching(names, prefix) {
		if err := p.Remove(name); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// List implements Backend.
func (p *Posix) List() ([]string, error) {
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		return nil, fmt.Errorf("storage: list runs: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if name, ok := unescapeRun(e.Name()); ok {
			names = append(names, name)
		}
	}
	return listMatching(names, ""), nil
}

// Close implements Backend: it removes every run file (the directory itself
// is left in place — it may be shared or user-provided).
func (p *Posix) Close() error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	_, err := p.RemoveMatching("")
	return err
}

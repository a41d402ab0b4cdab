package storage

import (
	"fmt"
	"sync"
)

// Memory is the in-process Backend: runs are byte slices in a map. It is
// the default spill target — demos, tests and the simulated cluster spill
// "to storage" without touching the filesystem, while exercising exactly
// the same framing and codec as the posix backend.
type Memory struct {
	mu   sync.Mutex
	runs map[string]*memRun
}

type memRun struct {
	data   []byte
	sealed bool
}

// NewMemory returns an empty in-memory backend.
func NewMemory() *Memory {
	return &Memory{runs: make(map[string]*memRun)}
}

// Create implements Backend.
func (m *Memory) Create(name string) (RunWriter, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.runs == nil {
		return nil, fmt.Errorf("storage: memory backend closed")
	}
	if _, ok := m.runs[name]; ok {
		return nil, fmt.Errorf("storage: run %q already exists", name)
	}
	run := &memRun{}
	m.runs[name] = run
	sink := func(block []byte) error {
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.runs == nil || m.runs[name] != run {
			return fmt.Errorf("storage: run %q removed while writing", name)
		}
		run.data = append(run.data, block...)
		return nil
	}
	seal := func() error {
		m.mu.Lock()
		defer m.mu.Unlock()
		run.sealed = true
		return nil
	}
	return newBlockWriter(sink, seal), nil
}

// Open implements Backend.
func (m *Memory) Open(name string) (RunReader, error) {
	m.mu.Lock()
	run, ok := m.runs[name]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("storage: no run %q", name)
	}
	if !run.sealed {
		return nil, fmt.Errorf("storage: run %q is not sealed", name)
	}
	data := run.data
	return newBlockReader(func() ([]byte, error) {
		if len(data) == 0 {
			return nil, nil
		}
		if len(data) < 4 {
			return nil, corruptRun(name, "truncated block header")
		}
		n := int(data[0]) | int(data[1])<<8 | int(data[2])<<16 | int(data[3])<<24
		if n < 0 || n > len(data)-4 {
			return nil, corruptRun(name, "bad block length %d", n)
		}
		block := data[4 : 4+n]
		data = data[4+n:]
		return block, nil
	}, nil), nil
}

// OpenBlocks implements Backend. The sealed slice is immutable, so the
// reader indexes every frame once up front and serves ReadBlock as zero-copy
// interior slices; concurrent reads need no locking.
func (m *Memory) OpenBlocks(name string) (BlockReader, error) {
	m.mu.Lock()
	run, ok := m.runs[name]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("storage: no run %q", name)
	}
	if !run.sealed {
		return nil, fmt.Errorf("storage: run %q is not sealed", name)
	}
	data := run.data
	var offs []int
	for off := 0; off < len(data); {
		if len(data)-off < 4 {
			return nil, corruptRun(name, "truncated block header")
		}
		n := int(data[off]) | int(data[off+1])<<8 | int(data[off+2])<<16 | int(data[off+3])<<24
		if n < 0 || n > len(data)-off-4 {
			return nil, corruptRun(name, "bad block length %d", n)
		}
		offs = append(offs, off+4)
		off += 4 + n
	}
	return &memBlockReader{name: name, data: data, offs: offs}, nil
}

// memBlockReader serves block payloads as read-only slices of one sealed
// in-memory run. All state is immutable after construction, so every method
// is trivially safe for concurrent use and Close is a no-op.
type memBlockReader struct {
	name string
	data []byte
	offs []int // payload start of each block; size derives from the frame
}

// Blocks implements BlockReader.
func (r *memBlockReader) Blocks() int { return len(r.offs) }

// BlockSize implements BlockReader.
func (r *memBlockReader) BlockSize(i int) int {
	if i < 0 || i >= len(r.offs) {
		return 0
	}
	end := len(r.data)
	if i+1 < len(r.offs) {
		end = r.offs[i+1] - 4
	}
	return end - r.offs[i]
}

// ReadBlock implements BlockReader; buf is ignored because the payload is
// already resident.
func (r *memBlockReader) ReadBlock(i int, _ []byte) ([]byte, error) {
	if i < 0 || i >= len(r.offs) {
		return nil, corruptRun(r.name, "block %d out of range [0,%d)", i, len(r.offs))
	}
	return r.data[r.offs[i] : r.offs[i]+r.BlockSize(i)], nil
}

// Close implements BlockReader.
func (r *memBlockReader) Close() error { return nil }

// Remove implements Backend.
func (m *Memory) Remove(name string) error {
	m.mu.Lock()
	delete(m.runs, name)
	m.mu.Unlock()
	return nil
}

// RemoveMatching implements Backend.
func (m *Memory) RemoveMatching(prefix string) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for name := range m.runs {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			delete(m.runs, name)
			n++
		}
	}
	return n, nil
}

// List implements Backend.
func (m *Memory) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.runs))
	for n := range m.runs {
		names = append(names, n)
	}
	return listMatching(names, ""), nil
}

// Close implements Backend.
func (m *Memory) Close() error {
	m.mu.Lock()
	m.runs = nil
	m.mu.Unlock()
	return nil
}

package storage

import (
	"bytes"
	"fmt"
	"sync"
)

// Memory is the in-process Backend: runs are lists of frames in a map. It is
// the default spill target — demos, tests and the simulated cluster spill
// "to storage" without touching the filesystem, while exercising exactly
// the same framing and codec as the posix backend.
type Memory struct {
	mu   sync.Mutex
	runs map[string]*memRun
}

// memRun keeps one slice per flushed frame, so a reloaded tuple whose
// strings alias its block pins that frame, not the whole run. It is its own
// writer's sink, so Create allocates the run and nothing beside it.
type memRun struct {
	blockWriter
	m      *Memory
	name   string
	frames [][]byte
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
	run := &memRun{m: m, name: name}
	run.sink = run
	m.runs[name] = run
	return &run.blockWriter, nil
}

// put implements blockSink: it keeps a copy of the frame.
func (r *memRun) put(block []byte) error {
	r.m.mu.Lock()
	defer r.m.mu.Unlock()
	if r.m.runs == nil || r.m.runs[r.name] != r {
		return fmt.Errorf("storage: run %q removed while writing", r.name)
	}
	r.frames = append(r.frames, bytes.Clone(block))
	return nil
}

// seal implements blockSink.
func (r *memRun) seal() error {
	r.m.mu.Lock()
	r.sealed = true
	r.m.mu.Unlock()
	return nil
}

// OpenBlocks implements Backend. The sealed frames are immutable, so the
// reader validates and indexes every frame once up front and serves
// ReadBlock as zero-copy payload slices; concurrent reads need no locking.
func (m *Memory) OpenBlocks(name string) (BlockReader, error) {
	// The sink and seal write frames and sealed under m.mu, so read both
	// under it too; a sealed run's frames never change afterwards.
	m.mu.Lock()
	run, ok := m.runs[name]
	sealed := ok && run.sealed
	var frames [][]byte
	if sealed {
		frames = run.frames
	}
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("storage: no run %q", name)
	}
	if !sealed {
		return nil, fmt.Errorf("storage: run %q is not sealed", name)
	}
	var blocks [][]byte
	for _, data := range frames {
		for off := 0; off < len(data); {
			if len(data)-off < 4 {
				return nil, corruptRun(name, "truncated block header")
			}
			n := int(data[off]) | int(data[off+1])<<8 | int(data[off+2])<<16 | int(data[off+3])<<24
			if n < 0 || n > len(data)-off-4 {
				return nil, corruptRun(name, "bad block length %d", n)
			}
			blocks = append(blocks, data[off+4:off+4+n])
			off += 4 + n
		}
	}
	return &memBlockReader{name: name, blocks: blocks}, nil
}

// memBlockReader serves the block payloads of one sealed in-memory run. All
// state is immutable after construction, so every method is trivially safe
// for concurrent use and Close is a no-op.
type memBlockReader struct {
	name   string
	blocks [][]byte
}

// Blocks implements BlockReader.
func (r *memBlockReader) Blocks() int { return len(r.blocks) }

// BlockSize implements BlockReader.
func (r *memBlockReader) BlockSize(i int) int {
	if i < 0 || i >= len(r.blocks) {
		return 0
	}
	return len(r.blocks[i])
}

// ReadBlock implements BlockReader; buf is ignored because the payload is
// already resident.
func (r *memBlockReader) ReadBlock(i int, _ []byte) ([]byte, error) {
	if i < 0 || i >= len(r.blocks) {
		return nil, corruptRun(r.name, "block %d out of range [0,%d)", i, len(r.blocks))
	}
	return r.blocks[i], nil
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

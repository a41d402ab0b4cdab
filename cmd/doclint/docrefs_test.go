package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestResolve classifies backticked spans against a small tree: what the
// tree declares, the standard library and plain prose resolve; deleted
// identifiers, missing files and lines past a file's end do not.
func TestResolve(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "hashjoin.go")
	if err := os.WriteFile(src, []byte("package engine\n\nfunc x() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tr := &tree{
		files: map[string]string{"internal/engine/hashjoin.go": src},
		decls: map[string]bool{"HashJoin": true, "InsertState": true, "insertOne": true},
		tests: map[string]bool{"TestFragmentWidth": true},
		pkgs:  map[string]bool{"engine": true},
	}
	for ref, ok := range map[string]bool{
		"engine/hashjoin.go":       true,
		"engine/hashjoin.go:3":     true,
		"engine/hashjoin.go:4":     false,
		"spill.go":                 false,
		"_test.go":                 true,
		"HashJoin.InsertState":     true,
		"engine.HashJoin":          true,
		"*engine.HashJoin":         true,
		"HashJoin.WorkerClone":     false,
		"engine.WorkerClone":       false,
		"WorkerClone(...)":         false,
		"SetWorkers(n)":            false,
		"insertOne":                true,
		"spillMu":                  false,
		"sync.Once":                true,
		"context.DeadlineExceeded": true,
		"TestFragmentWidth":        true,
		"TestGone":                 false,
		"COUNT(*)":                 true,
		"GOMAXPROCS":               true,
		"Budget":                   true,
		"mem_inflight_bytes":       true,
		"bench.unattributed_share": true,
		"go test -race ./...":      true,
	} {
		if why := tr.resolve(ref); (why == "") != ok {
			t.Errorf("resolve(%q) = %q, want resolved %v", ref, why, ok)
		}
	}
}

// Package testenv is for _test.go files only: it lets `make lowmem` run a
// whole test suite under a forced per-query memory budget and worker-pool
// width without the production constructors reading the environment, and
// tells allocation ceilings whether the race detector instruments the
// build (RaceEnabled).
package testenv

import (
	"os"
	"strconv"
	"testing"
)

// Force applies GRIDDQP_FORCE_MEM_BUDGET (bytes) and GRIDDQP_FORCE_PARALLEL
// (worker-pool width) to a coordinator or manifest configuration under
// test: each overrides its field only where the test left it zero, so tests
// that pick an explicit budget or width keep it.
func Force(t testing.TB, memoryBudgetBytes *int64, parallelism *int) {
	t.Helper()
	if v := os.Getenv("GRIDDQP_FORCE_MEM_BUDGET"); v != "" && *memoryBudgetBytes == 0 {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("GRIDDQP_FORCE_MEM_BUDGET=%q: %v", v, err)
		}
		*memoryBudgetBytes = n
	}
	if v := os.Getenv("GRIDDQP_FORCE_PARALLEL"); v != "" && *parallelism == 0 {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("GRIDDQP_FORCE_PARALLEL=%q: %v", v, err)
		}
		*parallelism = n
	}
}

package storage

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestBudgetOverReleaseClamps is the regression test for the negative-
// inflight bug: an operator error path releasing bytes it never reserved
// (e.g. after a failed spill) must clamp the accountant at zero and count
// mem_overrelease_total instead of driving inflight — and the
// mem_inflight_bytes gauge — negative.
func TestBudgetOverReleaseClamps(t *testing.T) {
	before := obs.Default().Counter(obs.MMemOverrelease).Value()
	b := NewBudget(1 << 20)
	b.Reserve(100)
	b.Release(250) // 150 bytes never reserved
	if got := b.Inflight(); got != 0 {
		t.Fatalf("inflight after over-release = %d, want 0", got)
	}
	if b.Over() {
		t.Fatal("clamped budget must not report Over")
	}
	if got := obs.Default().Counter(obs.MMemOverrelease).Value() - before; got != 1 {
		t.Fatalf("mem_overrelease_total delta = %d, want 1", got)
	}
	// A second over-release on an empty budget stays at zero.
	b.Release(1 << 30)
	if got := b.Inflight(); got != 0 {
		t.Fatalf("inflight after second over-release = %d, want 0", got)
	}
	// The accountant still works after clamping.
	b.Reserve(40)
	if got := b.Inflight(); got != 40 {
		t.Fatalf("inflight after recovery = %d, want 40", got)
	}
	b.Release(40)
	if got := b.Inflight(); got != 0 {
		t.Fatalf("final inflight = %d, want 0", got)
	}
}

// TestBudgetOverIsExact pins the accountant's exactness: Over is false with
// exactly the limit reserved and true one byte past it, for limits that are
// not multiples of any reservation granularity.
func TestBudgetOverIsExact(t *testing.T) {
	for _, limit := range []int64{1, 7, 1000, 65537, 1<<20 + 13} {
		b := NewBudget(limit)
		b.Reserve(limit)
		if got := b.Inflight(); got != limit {
			t.Fatalf("limit %d: inflight = %d, want %d", limit, got, limit)
		}
		if b.Over() {
			t.Fatalf("limit %d: Over with exactly the limit reserved", limit)
		}
		b.Reserve(1)
		if !b.Over() {
			t.Fatalf("limit %d: not Over at limit+1", limit)
		}
		b.Release(1)
		if b.Over() {
			t.Fatalf("limit %d: still Over after releasing back to the limit", limit)
		}
		b.Release(limit)
	}
}

// TestBudgetStripedStress hammers Reserve/Release/Over on one budget from 8
// goroutines with randomized shares (run under -race). Throughout and at
// the end the invariants hold: Inflight never observed negative, and after
// every goroutine returns its reservations the accountant is exactly zero.
func TestBudgetStripedStress(t *testing.T) {
	const (
		workers = 8
		rounds  = 4000
	)
	b := NewBudget(1 << 20)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
			held := int64(0)
			for i := 0; i < rounds; i++ {
				n := int64(rng.Intn(4096) + 1)
				switch rng.Intn(4) {
				case 0, 1:
					b.Reserve(n)
					held += n
				case 2:
					if held > 0 {
						rel := held
						if rel > n {
							rel = n
						}
						b.Release(rel)
						held -= rel
					}
				default:
					b.Over()
					if got := b.Inflight(); got < 0 {
						t.Errorf("Inflight went negative: %d", got)
						return
					}
				}
			}
			b.Release(held)
		}(w)
	}
	wg.Wait()
	if got := b.Inflight(); got != 0 {
		t.Fatalf("final inflight = %d, want 0", got)
	}
}

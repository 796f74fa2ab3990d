package pqueue

import (
	"math/rand"
	"testing"
)

func TestLazyPopOrder(t *testing.T) {
	h := NewLazy(5)
	h.Update(0, 0, 1.5)
	h.Update(1, 1, 3.0)
	h.Update(2, 2, 2.25)
	h.Update(3, 3, 3.0) // ties with key 1; id 1 must win
	want := []int{1, 3, 2, 0}
	for _, k := range want {
		got, _, ok := h.Pop()
		if !ok || got != k {
			t.Fatalf("pop = %d (%v), want %d", got, ok, k)
		}
	}
	if _, _, ok := h.Pop(); ok {
		t.Fatal("pop from drained heap succeeded")
	}
}

func TestLazyUpdateSupersedes(t *testing.T) {
	h := NewLazy(3)
	h.Update(0, 0, 10)
	h.Update(1, 1, 5)
	h.Update(0, 0, 1) // demote key 0; its old entry is now stale
	k, p, ok := h.Pop()
	if !ok || k != 1 || p != 5 {
		t.Fatalf("pop = %d/%g, want 1/5", k, p)
	}
	k, p, ok = h.Pop()
	if !ok || k != 0 || p != 1 {
		t.Fatalf("pop = %d/%g, want 0/1 (the fresh value, not the stale 10)", k, p)
	}
}

func TestLazyInvalidate(t *testing.T) {
	h := NewLazy(3)
	h.Update(0, 0, 9)
	h.Update(1, 1, 8)
	h.Invalidate(0)
	if h.Live() != 1 {
		t.Fatalf("live = %d, want 1", h.Live())
	}
	k, _, ok := h.Pop()
	if !ok || k != 1 {
		t.Fatalf("pop = %d, want 1 after invalidating 0", k)
	}
	if _, _, ok := h.Pop(); ok {
		t.Fatal("invalidated key surfaced")
	}
	// Re-adding after invalidation works.
	h.Update(0, 0, 2)
	if k, _, ok := h.Pop(); !ok || k != 0 {
		t.Fatalf("pop = %d, want re-added 0", k)
	}
}

func TestLazyBulkInit(t *testing.T) {
	h := NewLazy(6)
	prios := []float64{2, 9, 4, 9, 1, 7}
	for k, p := range prios {
		h.BulkSet(k, int32(k), p)
	}
	h.Fix()
	want := []int{1, 3, 5, 2, 0, 4} // prio desc, ties by id asc
	for _, k := range want {
		got, _, ok := h.Pop()
		if !ok || got != k {
			t.Fatalf("pop = %d, want %d", got, k)
		}
	}
}

// TestLazyCompaction floods one key with updates and checks the array
// stays within the documented bound of the live set.
func TestLazyCompaction(t *testing.T) {
	h := NewLazy(4)
	for i := 0; i < 10000; i++ {
		h.Update(i%4, int32(i%4), float64(i))
	}
	if h.Len() > 64 {
		t.Fatalf("array holds %d entries for %d live keys; compaction failed", h.Len(), h.Live())
	}
	// The four freshest values must pop in order.
	want := []int{3, 2, 1, 0} // prios 9999, 9998, 9997, 9996
	for _, k := range want {
		got, _, ok := h.Pop()
		if !ok || got != k {
			t.Fatalf("pop = %d, want %d", got, k)
		}
	}
}

// TestLazyMatchesEagerHeap drives Lazy and the eager indexed Heap through
// the same random operation sequence and requires identical pop streams.
func TestLazyMatchesEagerHeap(t *testing.T) {
	const n = 40
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		lazy := NewLazy(n)
		eager := New()
		for op := 0; op < 400; op++ {
			k := r.Intn(n)
			switch r.Intn(4) {
			case 0, 1: // set/update
				p := float64(r.Intn(20))
				lazy.Update(k, int32(k), p)
				eager.Set(k, p)
			case 2: // remove
				lazy.Invalidate(k)
				eager.Remove(k)
			case 3: // pop from both
				lk, lp, lok := lazy.Pop()
				ek, ep, eok := eager.Pop()
				if lok != eok || (lok && (lk != ek || lp != ep)) {
					t.Fatalf("seed %d op %d: lazy pop (%d,%g,%v) != eager pop (%d,%g,%v)",
						seed, op, lk, lp, lok, ek, ep, eok)
				}
			}
		}
		// Drain both and compare the tails.
		var lt, et []int
		for {
			k, _, ok := lazy.Pop()
			if !ok {
				break
			}
			lt = append(lt, k)
		}
		for {
			k, _, ok := eager.Pop()
			if !ok {
				break
			}
			et = append(et, k)
		}
		if len(lt) != len(et) {
			t.Fatalf("seed %d: drain lengths %d vs %d", seed, len(lt), len(et))
		}
		for i := range lt {
			if lt[i] != et[i] {
				t.Fatalf("seed %d: drain[%d] = %d vs %d", seed, i, lt[i], et[i])
			}
		}
	}
}

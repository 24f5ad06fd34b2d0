package rcu

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// counterBox is a trivially clonable structure for exercising the store.
type counterBox struct {
	vals map[int]int
}

func newBox() *counterBox { return &counterBox{vals: make(map[int]int)} }

func TestUpdateAppliesToBothInstances(t *testing.T) {
	s := NewStore(newBox(), newBox())
	for i := 0; i < 10; i++ {
		i := i
		if err := s.Update(func(b *counterBox) error {
			b.vals[i] = i * i
			return nil
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Locked(func(active, spare *counterBox) {
		if len(active.vals) != 10 || len(spare.vals) != 10 {
			t.Fatalf("instances diverged: %d vs %d entries", len(active.vals), len(spare.vals))
		}
		for k, v := range active.vals {
			if spare.vals[k] != v {
				t.Fatalf("key %d: active %d, spare %d", k, v, spare.vals[k])
			}
		}
	})
}

func TestUpdateErrorLeavesPublishedStateUnchanged(t *testing.T) {
	s := NewStore(newBox(), newBox())
	if err := s.Update(func(b *counterBox) error { b.vals[1] = 1; return nil }, nil); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	repaired := 0
	err := s.Update(
		func(b *counterBox) error { b.vals[2] = 2; return boom },
		func(b *counterBox) error { delete(b.vals, 2); repaired++; return nil },
	)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if repaired != 1 {
		t.Fatalf("repair ran %d times", repaired)
	}
	h := s.Acquire()
	defer h.Release()
	if _, ok := h.Value().vals[2]; ok {
		t.Error("failed update visible to readers")
	}
	if h.Value().vals[1] != 1 {
		t.Error("prior state lost")
	}
}

// TestConcurrentReadersDuringUpdates is the core -race exercise: readers
// must always observe a consistent snapshot (every key k holds k) while a
// writer churns.
func TestConcurrentReadersDuringUpdates(t *testing.T) {
	s := NewStore(newBox(), newBox())
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				h := s.Acquire()
				for k, v := range h.Value().vals {
					if v != k {
						t.Errorf("torn read: vals[%d] = %d", k, v)
						h.Release()
						return
					}
				}
				h.Release()
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		i := i
		if i%3 == 2 {
			if err := s.Update(func(b *counterBox) error { delete(b.vals, i-2); return nil }, nil); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := s.Update(func(b *counterBox) error { b.vals[i] = i; return nil }, nil); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// genBox is a value that is only ever complete: every cell holds gen.
type genBox struct {
	gen   int
	cells [16]int
}

func newGenBox(gen int) *genBox {
	b := &genBox{}
	b.set(gen)
	return b
}

func (b *genBox) set(gen int) {
	b.gen = gen
	for i := range b.cells {
		b.cells[i] = gen
	}
}

// TestSwapUnderReaders is the -race exercise for the whole-structure path:
// while a writer swaps in fresh pairs, every lease must see one complete
// value whose generation never runs backwards; the pair handed to retired
// is the previous one and quiesced (it is scribbled over with plain
// writes, which the race detector would pair with any lingering reader);
// and an Update that follows a Swap lands on both new instances.
func TestSwapUnderReaders(t *testing.T) {
	s := NewStore(newGenBox(0), newGenBox(0))
	var stop atomic.Bool
	var wg, reading sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		reading.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for first := true; !stop.Load(); first = false {
				h := s.Acquire()
				if first {
					reading.Done() // the writer starts once every reader holds a lease
				}
				b := h.Value()
				gen := b.gen
				for i, c := range b.cells {
					if c != gen {
						t.Errorf("torn read: generation %d, cell %d holds %d", gen, i, c)
					}
				}
				h.Release()
				if gen < last {
					t.Errorf("generation ran backwards: %d after %d", gen, last)
				}
				last = gen
				// Yield, so that on a small machine the writer's drain is
				// not left waiting for the scheduler to preempt a reader.
				runtime.Gosched()
			}
		}()
	}
	reading.Wait()
	for gen := 2; gen <= 400; gen += 2 {
		prev := gen - 1 // the Update below left the previous pair at gen-1
		if gen == 2 {
			prev = 0
		}
		retiredCalls := 0
		s.Swap(newGenBox(gen), newGenBox(gen), func(oldActive, oldSpare *genBox) {
			retiredCalls++
			if oldActive == oldSpare {
				t.Error("retired pair is one instance")
			}
			for _, old := range []*genBox{oldActive, oldSpare} {
				if old.gen != prev {
					t.Errorf("swap to %d retired generation %d, want %d", gen, old.gen, prev)
				}
				old.set(-1)
			}
		})
		if retiredCalls != 1 {
			t.Fatalf("retired ran %d times", retiredCalls)
		}
		if err := s.Update(func(b *genBox) error { b.set(gen + 1); return nil }, nil); err != nil {
			t.Fatal(err)
		}
		s.Locked(func(active, spare *genBox) {
			if active == spare || active.gen != gen+1 || spare.gen != gen+1 {
				t.Fatalf("after swap to %d and update: active %d, spare %d", gen, active.gen, spare.gen)
			}
		})
	}
	stop.Store(true)
	wg.Wait()
	s.Swap(newGenBox(0), newGenBox(0), nil) // a nil retired is allowed
}

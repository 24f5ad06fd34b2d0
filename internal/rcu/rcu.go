// Package rcu provides the read-copy-update concurrency scheme behind the
// public Engine API: a double-buffered snapshot store in the style of the
// left-right algorithm. Two structurally identical instances exist; the
// active one is published through an atomic pointer and serves lookups,
// while writers mutate the quiesced spare, install it with a single
// atomic store, wait for the old active's readers to drain, and replay
// the same mutation there. Readers therefore never take a lock — a read
// is one pointer load plus two atomic reference-count updates — and
// writers pay each update twice instead of copying the whole structure,
// which preserves the paper's O(1) incremental-update property.
//
// Update is that left-right path and serves incremental changes (one rule
// in, one rule out). Swap is the whole-structure path: when the change is
// the entire content, the caller builds a fresh pair off to the side and
// Swap installs it, so nothing is torn down or replayed and a build that
// fails has published nothing.
package rcu

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Store manages the two instances of one lookup structure.
type Store[T any] struct {
	mu     sync.Mutex // serializes writers
	active atomic.Pointer[instance[T]]
	spare  *instance[T] // quiesced twin, mutated first on update
}

type instance[T any] struct {
	val     T
	readers atomic.Int64
}

// NewStore wraps two structurally identical instances. Every Update must
// keep them identical: a and b receive the same deterministic mutations.
func NewStore[T any](a, b T) *Store[T] {
	s := &Store[T]{spare: &instance[T]{val: b}}
	s.active.Store(&instance[T]{val: a})
	return s
}

// Handle is a leased reference to the active instance. It must be
// released exactly once; holding it pins the instance against writer
// mutation, so batch readers amortize one Acquire over many operations.
type Handle[T any] struct {
	inst *instance[T]
}

// Acquire leases the active instance for reading. The increment-recheck
// loop closes the race with a concurrent pointer swap: a reader that
// loses the race backs off without ever dereferencing the instance.
//
//repro:noalloc
func (s *Store[T]) Acquire() Handle[T] {
	for {
		in := s.active.Load()
		in.readers.Add(1)
		if s.active.Load() == in {
			return Handle[T]{inst: in}
		}
		in.readers.Add(-1)
	}
}

// Value returns the leased instance.
//
//repro:noalloc
func (h Handle[T]) Value() T { return h.inst.val }

// Release returns the lease. After the last release of a retired
// instance, the writer's drain loop proceeds.
//
//repro:noalloc
func (h Handle[T]) Release() { h.inst.readers.Add(-1) }

// Update applies a deterministic mutation to both instances: spare first,
// then — after publishing the spare and draining the old active's readers
// — the retired twin. If apply fails on the spare (e.g. a build that
// exceeds a storage bound), repair is invoked to restore the spare to the
// pre-update state and the error is returned with the published state
// unchanged. A failure on the twin after success on the spare means the
// mutation was not deterministic — the instances have diverged and no
// local repair can be trusted (the published instance already carries the
// update), so Update panics rather than silently serve two different
// rulesets.
func (s *Store[T]) Update(apply func(T) error, repair func(T) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	idle := s.spare
	if err := apply(idle.val); err != nil {
		if repair != nil {
			if rerr := repair(idle.val); rerr != nil {
				panic(fmt.Sprintf("rcu: spare repair failed after %v: %v", err, rerr))
			}
		}
		return err
	}
	cur := s.active.Load()
	s.active.Store(idle)
	s.spare = cur
	drain(cur)
	if err := apply(cur.val); err != nil {
		panic(fmt.Sprintf("rcu: update diverged between instances: %v", err))
	}
	return nil
}

// Swap installs a freshly built pair in place of both instances: a is
// published with a single atomic store and b becomes the spare. Like the
// arguments of NewStore, a and b must be structurally identical, and the
// caller must not touch them afterwards except through the store. Once the
// old active's readers have drained, retired — if not nil — runs with the
// old pair, still under the writer lock: both are quiesced and no reader
// will reach them again, so state that must outlive them (counters, say)
// can be carried over before any other writer or Locked caller sees the
// new pair without it. a is already serving readers by then, so retired
// may write to it only what readers may (atomic state).
func (s *Store[T]) Swap(a, b T, retired func(oldActive, oldSpare T)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, idle := s.active.Load(), s.spare
	s.active.Store(&instance[T]{val: a})
	s.spare = &instance[T]{val: b}
	drain(cur)
	if retired != nil {
		retired(cur.val, idle.val)
	}
}

// Locked runs f under the writer lock with both instances. The spare is
// quiesced; the active may still serve readers, so f must touch only
// writer-owned or atomic state on it.
func (s *Store[T]) Locked(f func(active, spare T)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(s.active.Load().val, s.spare.val)
}

// drain waits for every reader lease on in to be released. Backed-off
// readers from Acquire's recheck loop may still blip the count, but they
// never dereference the instance, so observing zero at any point is a
// safe linearization.
func drain[T any](in *instance[T]) {
	for in.readers.Load() != 0 {
		runtime.Gosched()
	}
}

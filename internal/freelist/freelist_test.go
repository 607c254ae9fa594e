package freelist

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// sliceStack is the free list the file system, the Dev-LSM and the FTL
// kept before Stack: every value of the range materialised in a slice,
// highest first, popped from the end.
type sliceStack []int

func newSliceStack(lo, hi int) sliceStack {
	s := make(sliceStack, 0, hi-lo)
	for v := hi - 1; v >= lo; v-- {
		s = append(s, v)
	}
	return s
}

func (s *sliceStack) pop() int {
	v := (*s)[len(*s)-1]
	*s = (*s)[:len(*s)-1]
	return v
}

// take is the file system's and the Dev-LSM's alloc: the last n values,
// in slice order.
func (s *sliceStack) take(dst []int, n int) []int {
	dst = append(dst, (*s)[len(*s)-n:]...)
	*s = (*s)[:len(*s)-n]
	return dst
}

// TestStackMatchesSlice: seeded random sequences of pops, takes, pushes
// of values taken earlier (in any order, some long held) and resets yield
// from Stack exactly what they yield from the materialised slice, and
// leave the same contents in the same order.
func TestStackMatchesSlice(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			lo := rng.Intn(100)
			hi := lo + 1 + rng.Intn(300)
			got, want := New(lo, hi), newSliceStack(lo, hi)
			var held []int // values taken, in the order taken
			for step := 0; step < 2000; step++ {
				if got.Len() != len(want) {
					t.Fatalf("step %d: Len %d, slice %d", step, got.Len(), len(want))
				}
				switch op := rng.Intn(20); {
				case op < 6 && len(want) > 0:
					g, w := got.Pop(), want.pop()
					if g != w {
						t.Fatalf("step %d: Pop %d, slice %d", step, g, w)
					}
					held = append(held, g)
				case op < 11 && len(want) > 0:
					n := rng.Intn(min(len(want), 40) + 1)
					prefix := []int{-1, -2}[:rng.Intn(3)]
					g := got.Take(slices.Clone(prefix), n)
					w := want.take(slices.Clone(prefix), n)
					if !slices.Equal(g, w) {
						t.Fatalf("step %d: Take(%d) %v, slice %v", step, n, g, w)
					}
					held = append(held, g[len(prefix):]...)
				case op < 18 && len(held) > 0:
					// Give back a run of held values, oldest or newest,
					// in order or reversed.
					n := 1 + rng.Intn(len(held))
					start := 0
					if rng.Intn(2) == 0 {
						start = len(held) - n
					}
					back := slices.Clone(held[start : start+n])
					if rng.Intn(2) == 0 {
						slices.Reverse(back)
					}
					held = slices.Delete(held, start, start+n)
					got.Push(back...)
					want = append(want, back...)
				case op == 19:
					lo = rng.Intn(100)
					hi = lo + 1 + rng.Intn(300)
					got.Reset(lo, hi)
					want, held = newSliceStack(lo, hi), nil
				}
			}
			for len(want) > 0 {
				if g, w := got.Pop(), want.pop(); g != w {
					t.Fatalf("drain: Pop %d, slice %d", g, w)
				}
			}
			if got.Len() != 0 {
				t.Fatalf("drained slice, Stack still holds %d", got.Len())
			}
		})
	}
}

// TestStackPanicsWhenEmpty: popping or taking past the contents is a
// caller bug, reported rather than answered with a value out of range.
func TestStackPanicsWhenEmpty(t *testing.T) {
	for name, f := range map[string]func(s *Stack){
		"Pop":  func(s *Stack) { s.Pop() },
		"Take": func(s *Stack) { s.Take(nil, 2) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s past the contents did not panic", name)
				}
			}()
			s := New(3, 4)
			s.Pop()
			s.Push(3)
			s.Pop()
			f(&s)
		})
	}
}

// TestAllocsStack: a stack takes room only for values put back, so a
// large range costs nothing to build, and popping and pushing back what
// was popped allocates nothing once that room exists.
func TestAllocsStack(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	var s Stack
	if n := testing.AllocsPerRun(10, func() { s = New(0, 1<<30) }); n != 0 {
		t.Errorf("New over 2^30 values: %v allocations, want 0", n)
	}
	buf := make([]int, 0, 64)
	s.Push(s.Take(buf[:0], 64)...)
	if n := testing.AllocsPerRun(100, func() {
		buf = s.Take(buf[:0], 64)
		s.Push(buf...)
		s.Push(s.Pop())
	}); n != 0 {
		t.Errorf("take, pop and push back: %v allocations, want 0", n)
	}
}

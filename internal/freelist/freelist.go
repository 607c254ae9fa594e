// Package freelist is the LIFO free list of the simulator's allocators:
// the file system's pages, the Dev-LSM's key-value-region LPNs and each
// die's free blocks in the FTL.
//
// A list starts out holding a whole range, so building one as a slice
// costs a word per value before the run touches any; a Stack costs what
// the run gives back.
package freelist

import "slices"

// Stack is a LIFO of ints that starts out holding every value of a range
// [lo, hi), lo on top, without storing them: the values never taken are
// a counter, and only values put back take room. It yields the values, in
// the same order, that the slice [hi-1, ..., lo+1, lo] used as a stack
// (pop from the end, append to push) yields.
type Stack struct {
	next, end int   // never taken: next, next+1, ..., end-1, next on top
	back      []int // put back, the newest last; all above the never taken
}

// New returns a stack holding lo, lo+1, ..., hi-1, lo on top.
func New(lo, hi int) Stack { return Stack{next: lo, end: hi} }

// Reset makes s hold lo, lo+1, ..., hi-1 again, lo on top, keeping the
// room values put back took.
func (s *Stack) Reset(lo, hi int) { s.next, s.end, s.back = lo, hi, s.back[:0] }

// Len returns the number of values on the stack.
func (s *Stack) Len() int { return s.end - s.next + len(s.back) }

// Pop takes the top value. The stack must not be empty.
func (s *Stack) Pop() int {
	if n := len(s.back); n > 0 {
		v := s.back[n-1]
		s.back = s.back[:n-1]
		return v
	}
	if s.next >= s.end {
		panic("freelist: Pop of an empty stack")
	}
	s.next++
	return s.next - 1
}

// Push puts values back, the last on top.
func (s *Stack) Push(vs ...int) { s.back = append(s.back, vs...) }

// Take moves the top n values onto the end of dst in stack order, the
// top last, as copying the slice stack's last n values would, and returns
// dst. n must not exceed Len.
func (s *Stack) Take(dst []int, n int) []int {
	if n > s.Len() {
		panic("freelist: Take of more values than the stack holds")
	}
	dst = slices.Grow(dst, n)[:len(dst)+n]
	for i := len(dst) - 1; i >= len(dst)-n; i-- {
		dst[i] = s.Pop()
	}
	return dst
}

package fs

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kvaccel/internal/faults"
	"kvaccel/internal/fold"
	"kvaccel/internal/vclock"
)

// slicePages is the file system's free list before freelist.Stack: every
// page LPN in a slice, the highest first, popped from the end. Its methods
// are the slice-era alloc, grow and page give-backs, so slicePages is the
// reference the page choices are held to.
type slicePages []int

func newSlicePages(n int) slicePages {
	s := make(slicePages, n)
	for i := range s {
		s[i] = n - 1 - i
	}
	return s
}

func (s *slicePages) alloc(n int) []int {
	pages := make([]int, n)
	copy(pages, (*s)[len(*s)-n:])
	*s = (*s)[:len(*s)-n]
	return pages
}

func (s *slicePages) grow(pages []int, n int) []int {
	for len(pages) < n {
		pages = append(pages, (*s)[len(*s)-1])
		*s = (*s)[:len(*s)-1]
	}
	return pages
}

func (s *slicePages) put(pages []int) { *s = append(*s, pages...) }

// TestPagesMatchSliceFreeList: over seeded random replaces, appends,
// removes, failed writes and power cuts (torn tails cut back, unacked
// files dropped, failed replaces reverted), every file holds the pages,
// in order, that the materialised slice free list gave it, and the free
// pages come back in the slice's order.
func TestPagesMatchSliceFreeList(t *testing.T) {
	const ps, devPages = 4096, 64
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dev := &fakeDev{pageSize: ps, pages: devPages}
			fsys := New(dev)
			ref := newSlicePages(devPages)
			want := map[string][]int{} // the reference's page list per file
			names := []string{"a", "b", "c", "d"}
			pagesOf := func(size int) int { return max(1, (size+ps-1)/ps) }
			check := func(step int, what string) {
				t.Helper()
				for _, name := range names {
					got, err := fsys.Extents(name)
					w, ok := want[name]
					if (err == nil) != ok || !slices.Equal(got, w) {
						t.Fatalf("step %d (%s): %s holds pages %v (%v), reference %v (present %v)", step, what, name, got, err, w, ok)
					}
				}
				if got := fsys.FreeBytes(); got != int64(len(ref))*ps {
					t.Fatalf("step %d (%s): %d bytes free, reference %d pages", step, what, got, len(ref))
				}
			}
			run(t, func(r *vclock.Runner) {
				for step := 0; step < 400; step++ {
					name := names[rng.Intn(len(names))]
					size := rng.Intn(12 * ps)
					var what string
					switch op := rng.Intn(10); {
					case op < 3:
						what = "replace"
						_ = fsys.WriteFile(r, name, fold.Literal(make([]byte, size)))
						old, replacing := want[name]
						n := pagesOf(size)
						if replacing && n <= len(ref)+len(old) {
							ref.put(old)
							delete(want, name)
						}
						if n <= len(ref) {
							want[name] = ref.alloc(n)
						}
					case op < 6:
						what = "append"
						before, _ := fsys.Size(name)
						_ = fsys.Append(r, name, make([]byte, size))
						if n := (before + size + ps - 1) / ps; size > 0 && n-len(want[name]) <= len(ref) {
							want[name] = ref.grow(want[name], n)
						}
					case op < 7:
						what = "remove"
						_ = fsys.Remove(r, name)
						ref.put(want[name])
						delete(want, name)
					case op < 9:
						what = "toggle write failures"
						dev.failWrites = !dev.failWrites
					default:
						what = "power cut"
						fsys.Crash(faults.NewPlan(rng.Int63()))
						// Crash walks the files in name order: an unacked file
						// or one that no longer fits gives back all its pages;
						// a survivor keeps the pages its image needs, giving
						// back a torn tail's or taking more for a longer
						// reverted image.
						for _, name := range names {
							pages, ok := want[name]
							if !ok {
								continue
							}
							size, err := fsys.Size(name)
							need := pagesOf(size)
							switch {
							case err != nil:
								ref.put(pages)
								delete(want, name)
							case need < len(pages):
								ref.put(pages[need:])
								want[name] = pages[:need]
							default:
								want[name] = ref.grow(pages, need)
							}
						}
					}
					check(step, what)
				}
			})
			// What is left free comes back in the reference's order.
			for len(ref) > 0 {
				if got, w := fsys.free.Pop(), ref[len(ref)-1]; got != w {
					t.Fatalf("free page %d, reference %d", got, w)
				}
				ref = ref[:len(ref)-1]
			}
		})
	}
}

// TestPageCacheGrowsWithHighestLPN: the residency links cover the highest
// LPN cached, not the device, and keep their order as they grow.
func TestPageCacheGrowsWithHighestLPN(t *testing.T) {
	fsys := New(&fakeDev{pageSize: 4096, pages: 1 << 20})
	fsys.cacheInsert([]int{5, 2})
	if n := len(fsys.cached.next); n != minLinks {
		t.Fatalf("links for %d pages after caching LPNs up to 5, want %d", n, minLinks)
	}
	fsys.cacheInsert([]int{7, 3*minLinks + 1, 3})
	if n := len(fsys.cached.next); n != 3*minLinks+2 {
		t.Fatalf("links for %d pages after caching LPN %d, want %d", n, 3*minLinks+1, 3*minLinks+2)
	}
	fsys.cacheInsert([]int{3*minLinks + 2})
	if n := len(fsys.cached.next); n != 6*minLinks+4 {
		t.Fatalf("links for %d pages after caching one past them, want them doubled to %d", n, 6*minLinks+4)
	}
	if got := fsys.cached.order(); !sameInts(got, []int{3*minLinks + 2, 3, 3*minLinks + 1, 7, 2, 5}) {
		t.Fatalf("order after growing: %v", got)
	}
	if fsys.cached.contains(1<<20 - 1) {
		t.Fatal("a page beyond the links reads as resident")
	}
	fsys.cacheInsert([]int{1<<20 - 1})
	if n := len(fsys.cached.next); n != 1<<20 {
		t.Fatalf("links for %d pages after caching the last LPN, want the device's %d", n, 1<<20)
	}
}

package ftl

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"kvaccel/internal/freelist"
	"kvaccel/internal/nand"
	"kvaccel/internal/vclock"
)

// scanFree is the FTL's free pool before the per-die stacks: one slice of
// every free block id, highest first, that takeFreeBlock scanned from the
// end for the die's last block, and GC appended its victims to.
type scanFree []int

func newScanFree(blocks int) scanFree {
	s := make(scanFree, blocks)
	for i := range s {
		s[i] = blocks - 1 - i
	}
	return s
}

func (s *scanFree) takeFreeBlock(die, blocksPerDie int) (int, bool) {
	for i := len(*s) - 1; i >= 0; i-- {
		if bid := (*s)[i]; bid/blocksPerDie == die {
			*s = append((*s)[:i], (*s)[i+1:]...)
			return bid, true
		}
	}
	return 0, false
}

// TestDieStacksMatchScan: seeded random takes from random dies, dies run
// dry included, and returns of taken blocks in any order — GC's victims —
// give from one freelist.Stack per die exactly the blocks the scan over
// one slice gives.
func TestDieStacksMatchScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dies, perDie := 1+rng.Intn(8), 1+rng.Intn(20)
			ref := newScanFree(dies * perDie)
			stacks := make([]freelist.Stack, dies)
			for die := range stacks {
				stacks[die] = freelist.New(die*perDie, (die+1)*perDie)
			}
			var taken []int
			for step := 0; step < 3000; step++ {
				if rng.Intn(5) < 3 || len(taken) == 0 {
					die := rng.Intn(dies)
					want, wok := ref.takeFreeBlock(die, perDie)
					ok := stacks[die].Len() > 0
					got := 0
					if ok {
						got = stacks[die].Pop()
					}
					if ok != wok || got != want {
						t.Fatalf("step %d: die %d gave %d (%v), the scan %d (%v)", step, die, got, ok, want, wok)
					}
					if ok {
						taken = append(taken, got)
					}
					continue
				}
				i := rng.Intn(len(taken))
				bid := taken[i]
				taken = append(taken[:i], taken[i+1:]...)
				ref = append(ref, bid)
				stacks[bid/perDie].Push(bid)
			}
		})
	}
}

// gcWriteMixHash runs a GC-heavy write mix on a small array with the
// default watermarks — skewed overwrites in batches of 1 to 8 pages to
// both regions, trims, and wipes of the key-value region — and returns a
// hash of the physical page every logical page maps to after each
// operation, and the GC runs.
func gcWriteMixHash(t *testing.T) (sum uint64, gcRuns int64) {
	f := New(testArray(), Config{BlockRegionPages: 300, KVRegionPages: 100}) // 4 dies of 16 8-page blocks
	h := fnv.New64a()
	rng := rand.New(rand.NewSource(7))
	c := vclock.New()
	c.Go("io", func(r *vclock.Runner) {
		lpns := make([]int, 0, 8)
		var buf [4]byte
		for op := 0; op < 4000; op++ {
			rg, pages := BlockRegion, 300
			if rng.Intn(4) == 0 {
				rg, pages = KVRegion, 100
			}
			switch k := rng.Intn(20); {
			case k == 0:
				f.Trim(rg, rng.Intn(pages))
			case k == 1 && rg == KVRegion:
				f.TrimRegion(KVRegion)
			default:
				lpns = lpns[:0]
				for n := 1 + rng.Intn(8); len(lpns) < n; {
					lpn := rng.Intn(pages)
					if rng.Intn(4) > 0 {
						lpn = rng.Intn(pages / 8) // hot
					}
					lpns = append(lpns, lpn)
				}
				if err := f.WriteMany(r, rg, lpns); err != nil {
					t.Error(err)
					return
				}
			}
			for _, rs := range f.regions {
				for lpn := range rs.mapping {
					ppn := int32(-1)
					if m := rs.mapping[lpn]; m != 0 {
						ppn = m - 1
					}
					buf[0], buf[1], buf[2], buf[3] = byte(ppn), byte(ppn>>8), byte(ppn>>16), byte(ppn>>24)
					h.Write(buf[:])
				}
			}
		}
	})
	c.Wait()
	return h.Sum64(), f.Stats().GCRuns
}

// TestGCWriteMixKeepsItsPages: the per-die free-block stacks place every
// page of a GC-heavy write mix where the scan over one free slice placed
// it. The hash was taken with that scan (and the -1-for-unmapped L2P
// tables); a change of any page's placement changes it.
func TestGCWriteMixKeepsItsPages(t *testing.T) {
	sum, gcRuns := gcWriteMixHash(t)
	const scanSum, scanGCRuns = 0x6f83e8109f9733ad, 3533
	if sum != scanSum || gcRuns != scanGCRuns {
		t.Fatalf("write mix: page hash %#x after %d GC runs, the free-slice scan gave %#x after %d", sum, gcRuns, uint64(scanSum), scanGCRuns)
	}
}

// TestReverseMapsComeByChunk: a block gets its reverse map when it is
// first opened, together with the other blocks of its chunk — a chunk may
// span dies, and the last may be short — and no block has one before.
func TestReverseMapsComeByChunk(t *testing.T) {
	geo := nand.Geometry{Channels: 1, Ways: 2, BlocksPerDie: 100, PagesPerBlock: 4, PageSize: 4096}
	timing := nand.Timing{ReadPage: time.Microsecond, ProgramPage: time.Microsecond, EraseBlock: time.Microsecond}
	f := New(nand.New(geo, timing), Config{BlockRegionPages: 64})
	mapped := func() (n int) {
		for _, b := range f.blocks {
			if b.lpns != nil {
				n++
			}
		}
		return n
	}
	if n := mapped(); n != 0 {
		t.Fatalf("a new FTL holds reverse maps for %d blocks, want none", n)
	}
	c := vclock.New()
	c.Go("io", func(r *vclock.Runner) {
		// Two pages open block 0 on die 0 and block 100 on die 1.
		if err := f.WriteMany(r, BlockRegion, []int{0, 1}); err != nil {
			t.Error(err)
		}
	})
	c.Wait()
	for bid, b := range f.blocks {
		if want := bid < 2*chunkBlocks; (b.lpns != nil) != want {
			t.Fatalf("block %d has a reverse map: %v, want %v (chunks [0,64) and [64,128))", bid, b.lpns != nil, want)
		}
	}
	f.mapChunk(199)
	for bid := 192; bid < 200; bid++ {
		if lp := f.blocks[bid].lpns; len(lp) != geo.PagesPerBlock || cap(lp) != geo.PagesPerBlock {
			t.Fatalf("block %d of the short last chunk: reverse map of len %d cap %d, want %d", bid, len(lp), cap(lp), geo.PagesPerBlock)
		}
	}
	if n := mapped(); n != 2*chunkBlocks+8 {
		t.Fatalf("%d blocks mapped, want %d", n, 2*chunkBlocks+8)
	}
}

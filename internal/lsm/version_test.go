package lsm

import (
	"testing"

	"kvaccel/internal/vclock"
)

func fm(num uint64, level int, lo, hi string, size int64) *FileMeta {
	return &FileMeta{Num: num, Level: level, Smallest: []byte(lo), Largest: []byte(hi), Size: size}
}

func TestVersionAddKeepsLevelsSorted(t *testing.T) {
	v := newVersion(4)
	v.addFile(fm(1, 1, "m", "p", 100))
	v.addFile(fm(2, 1, "a", "c", 100))
	v.addFile(fm(3, 1, "f", "h", 100))
	files := v.levels[1]
	if len(files) != 3 {
		t.Fatalf("level 1 has %d files", len(files))
	}
	for i, want := range []string{"a", "f", "m"} {
		if string(files[i].Smallest) != want {
			t.Fatalf("level 1 order wrong at %d: %q", i, files[i].Smallest)
		}
	}
}

func TestVersionL0AppendOrder(t *testing.T) {
	v := newVersion(4)
	v.addFile(fm(5, 0, "x", "z", 10))
	v.addFile(fm(6, 0, "a", "c", 10))
	if v.levels[0][0].Num != 5 || v.levels[0][1].Num != 6 {
		t.Fatal("L0 must preserve append (age) order")
	}
}

func TestVersionRemoveFile(t *testing.T) {
	v := newVersion(4)
	f1 := fm(1, 1, "a", "c", 10)
	f2 := fm(2, 1, "d", "f", 10)
	v.addFile(f1)
	v.addFile(f2)
	if !v.removeFile(f1) {
		t.Fatal("removeFile missed a present file")
	}
	if v.removeFile(f1) {
		t.Fatal("removeFile found an absent file")
	}
	if len(v.levels[1]) != 1 || v.levels[1][0] != f2 {
		t.Fatal("wrong file removed")
	}
}

func TestVersionOverlapping(t *testing.T) {
	v := newVersion(4)
	v.addFile(fm(1, 1, "a", "c", 10))
	v.addFile(fm(2, 1, "e", "g", 10))
	v.addFile(fm(3, 1, "i", "k", 10))
	got := v.overlapping(1, []byte("b"), []byte("f"))
	if len(got) != 2 || got[0].Num != 1 || got[1].Num != 2 {
		t.Fatalf("overlapping(b,f) = %v files", len(got))
	}
	if len(v.overlapping(1, []byte("z"), []byte("zz"))) != 0 {
		t.Fatal("overlap beyond range")
	}
	// nil bounds mean unbounded.
	if len(v.overlapping(1, nil, nil)) != 3 {
		t.Fatal("nil bounds should cover everything")
	}
}

func TestVersionFilesForKey(t *testing.T) {
	v := newVersion(4)
	candidates := func(l int, key string) (got []*FileMeta) {
		v.filesForKey(l, []byte(key), func(f *FileMeta) bool {
			got = append(got, f)
			return true
		})
		return got
	}
	// L0: overlapping files, newest (highest num, appended last) first.
	v.addFile(fm(1, 0, "a", "m", 10))
	v.addFile(fm(2, 0, "c", "z", 10))
	got := candidates(0, "d")
	if len(got) != 2 || got[0].Num != 2 || got[1].Num != 1 {
		t.Fatalf("L0 filesForKey order wrong: %v", got)
	}
	// A visitor that has found its key stops the walk.
	visited := 0
	v.filesForKey(0, []byte("d"), func(*FileMeta) bool { visited++; return false })
	if visited != 1 {
		t.Fatalf("L0 walk visited %d files after the visitor said stop", visited)
	}
	// L1: at most one candidate.
	v.addFile(fm(3, 1, "a", "c", 10))
	v.addFile(fm(4, 1, "d", "f", 10))
	got = candidates(1, "e")
	if len(got) != 1 || got[0].Num != 4 {
		t.Fatalf("L1 filesForKey = %v", got)
	}
	if got := candidates(1, "x"); len(got) != 0 {
		t.Fatalf("key outside all ranges matched %v", got)
	}
}

func TestTargetBytesGeometric(t *testing.T) {
	opt := DefaultOptions(nil)
	opt.BaseLevelBytes = 100
	opt.LevelMultiplier = 10
	if targetBytes(&opt, 0) != 0 {
		t.Fatal("L0 has no byte target")
	}
	if targetBytes(&opt, 1) != 100 || targetBytes(&opt, 2) != 1000 || targetBytes(&opt, 3) != 10000 {
		t.Fatal("geometric targets wrong")
	}
}

func TestPendingCompactionBytes(t *testing.T) {
	opt := DefaultOptions(nil)
	opt.BaseLevelBytes = 100
	opt.LevelMultiplier = 10
	opt.L0CompactionTrigger = 2
	opt.MaxLevels = 4
	v := newVersion(4)
	if v.pendingCompactionBytes(&opt) != 0 {
		t.Fatal("empty version has pending bytes")
	}
	// L1 over target by 50.
	v.addFile(fm(1, 1, "a", "c", 150))
	if got := v.pendingCompactionBytes(&opt); got != 50 {
		t.Fatalf("pending = %d, want 50", got)
	}
	// L0 at trigger adds its size.
	v.addFile(fm(2, 0, "a", "z", 30))
	v.addFile(fm(3, 0, "a", "z", 30))
	if got := v.pendingCompactionBytes(&opt); got != 110 {
		t.Fatalf("pending = %d, want 110", got)
	}
}

func TestSSTNameFormat(t *testing.T) {
	f := fm(42, 1, "a", "b", 1)
	if f.Name() != "000042.sst" {
		t.Fatalf("Name = %q", f.Name())
	}
	if SSTName(7) != "000007.sst" {
		t.Fatalf("SSTName = %q", SSTName(7))
	}
}

func TestLevelIteratorAcrossFiles(t *testing.T) {
	// Build a real DB, force several disjoint L1 files, and check the
	// level iterator walks across file boundaries.
	clk, db := newTestDB(0, smallOpts())
	clk.Go("test", func(r *vclock.Runner) {
		defer db.Close()
		for i := 0; i < 2000; i++ {
			_ = db.Put(r, key(i), value(i))
		}
		db.Flush(r)
		db.WaitIdle(r)
		counts := db.LevelFileCounts()
		deep := 0
		for l := 1; l < len(counts); l++ {
			deep += counts[l]
		}
		if deep < 2 {
			t.Skipf("need >=2 deep files to exercise the level iterator, got %v", counts)
		}
		it := db.NewIterator(r)
		defer it.Close()
		n := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			n++
		}
		if n != 2000 {
			t.Fatalf("level-spanning scan saw %d keys, want 2000", n)
		}
		// Seek into the middle of a deep level.
		it.Seek(key(1500))
		if !it.Valid() || string(it.Key()) != string(key(1500)) {
			t.Fatalf("Seek landed on %q", it.Key())
		}
	})
	clk.Wait()
}

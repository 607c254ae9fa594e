package fs

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"kvaccel/internal/faults"
	"kvaccel/internal/fold"
	"kvaccel/internal/vclock"
)

// TestAppendOnFullDeviceChangesNothing: an append the device cannot hold
// is refused before anything is published — bytes, size, pages, the free
// list and, for a new name, the directory stay as they were. It used to
// publish the bytes first: Size reported them and the next read panicked.
func TestAppendOnFullDeviceChangesNothing(t *testing.T) {
	fsys := New(&fakeDev{pageSize: 4096, pages: 4})
	run(t, func(r *vclock.Runner) {
		three := bytes.Repeat([]byte{3}, 3*4096)
		if err := fsys.Append(r, "log", three); err != nil {
			t.Fatal(err)
		}
		if err := fsys.Append(r, "log", make([]byte, 3*4096)); err == nil {
			t.Fatal("6 pages appended to a 4-page device")
		}
		if err := fsys.Append(r, "other", make([]byte, 2*4096)); err == nil {
			t.Fatal("a new 2-page file fit beside 3 pages on a 4-page device")
		}
		if fsys.Exists("other") {
			t.Error("a refused append left an empty file behind")
		}
		if size, _ := fsys.Size("log"); size != 3*4096 {
			t.Errorf("size after a refused append = %d, want %d", size, 3*4096)
		}
		if pages, _ := fsys.Extents("log"); len(pages) != 3 || fsys.FreeBytes() != 4096 {
			t.Errorf("after a refused append the file has %d pages and %d bytes are free, want 3 and 4096", len(pages), fsys.FreeBytes())
		}
		if got, err := fsys.ReadFile(r, "log"); err != nil || !bytes.Equal(got, three) {
			t.Errorf("read after a refused append: %d bytes, err %v", len(got), err)
		}
		if err := fsys.Append(r, "log", make([]byte, 4096)); err != nil {
			t.Errorf("the last free page could not be appended: %v", err)
		}
	})
}

// TestReplaceOnFullDeviceKeepsOldFile: WriteFile is an atomic replace, so
// one that fails for space leaves the old file, its durable image
// included. It used to free the old image before finding out and lose
// the name.
func TestReplaceOnFullDeviceKeepsOldFile(t *testing.T) {
	fsys := New(&fakeDev{pageSize: 4096, pages: 4})
	run(t, func(r *vclock.Runner) {
		if err := fsys.WriteFile(r, "CURRENT", fold.Literal([]byte("MANIFEST-000001"))); err != nil {
			t.Fatal(err)
		}
		if err := fsys.WriteFile(r, "CURRENT", fold.Literal(make([]byte, 5*4096))); err == nil {
			t.Fatal("a 5-page image replaced a file on a 4-page device")
		}
		if got, err := fsys.ReadFile(r, "CURRENT"); err != nil || string(got) != "MANIFEST-000001" {
			t.Errorf("after a refused replace: %q, %v", got, err)
		}
		if fsys.FreeBytes() != 3*4096 {
			t.Errorf("free after a refused replace = %d, want %d", fsys.FreeBytes(), 3*4096)
		}
	})
	fsys.Crash(faults.NewPlan(1))
	if got, err := fsys.MediaRead("CURRENT"); err != nil || string(got) != "MANIFEST-000001" {
		t.Errorf("after a refused replace and a crash: %q, %v", got, err)
	}
}

// TestReplaceDropsOldPagesFromCache: the replaced image's pages leave the
// page cache with it.
func TestReplaceDropsOldPagesFromCache(t *testing.T) {
	fsys, _ := newTestFS()
	run(t, func(r *vclock.Runner) {
		if err := fsys.WriteFile(r, "f", fold.Literal(make([]byte, 3*4096))); err != nil {
			t.Fatal(err)
		}
		if err := fsys.WriteFile(r, "f", fold.Literal(make([]byte, 4096))); err != nil {
			t.Fatal(err)
		}
		if got := fsys.CachedPages(); got != 1 {
			t.Errorf("cached pages after replacing 3 pages by 1 = %d, want 1", got)
		}
	})
}

// flatFile is the reference the rope is held to: a file as one flat byte
// slice plus the image the device has acknowledged — a prefix of data
// after an append, the previous image while a replace is unacknowledged.
// It is the representation the file system had before extents.
type flatFile struct {
	data    []byte
	stable  []byte
	durable bool
	torn    bool
}

// opStream decodes a test's operations from bytes, so one driver serves
// the seeded property test and the fuzz target. An exhausted stream reads
// as zeros.
type opStream struct{ b []byte }

func (o *opStream) byte() int {
	if len(o.b) == 0 {
		return 0
	}
	v := o.b[0]
	o.b = o.b[1:]
	return int(v)
}

// size draws a length from 1 B to 1 MiB, every power of two as likely as
// any other.
func (o *opStream) size() int {
	e := o.byte() % 21
	return 1<<e + (o.byte()<<8|o.byte())%(1<<e)
}

// chunk draws one append chunk: empty, tight, with slack under an eighth
// (kept and clipped) or over it (traded for a tight copy). The slack is
// filled so a write into it would show.
func (o *opStream) chunk(fill byte) []byte {
	n, slack := o.size(), 0
	switch o.byte() % 6 {
	case 0:
		return nil
	case 1:
		slack = n / 8
	case 2:
		slack = n/8 + 1 + o.byte()
	}
	buf := bytes.Repeat([]byte{0xEE}, n+slack)
	// A pattern of prime period, so no shift by a page or an extent maps
	// it onto itself; doubled into place, which the fuzzer's instrumented
	// build does far faster than a loop over a megabyte.
	const period = 251
	for i := 0; i < min(n, period); i++ {
		buf[i] = fill + byte(i)
	}
	for done := period; done < n; done *= 2 {
		copy(buf[done:n], buf[:done])
	}
	return buf[:n]
}

// image draws one replace image: o.chunk's bytes, or — every other time
// — a table-like image whose values fold, built as the table builder
// builds one: literal runs between values of 1 KiB to 64 KiB that repeat
// a run of 1 to 64 bytes, each folded as it is appended. It returns the
// payload to hand over, the buffer it holds (to check that nothing
// writes to it) and the flat bytes.
func (o *opStream) image(fill byte) (fold.Payload, []byte, []byte) {
	if o.byte()%2 == 0 {
		b := o.chunk(fill)
		return fold.Literal(b), b, b
	}
	var p fold.Payload
	var lit, flat []byte
	for k := 1 + o.byte()%4; k > 0; k-- {
		for i := o.byte(); i > 0; i-- {
			lit, flat = append(lit, fill+byte(i)), append(flat, fill+byte(i))
		}
		d := 1 + o.byte()%fold.MaxPeriod
		v := make([]byte, fold.MinLen+(o.byte()<<8|o.byte())%(63<<10))
		for i := 0; i < d; i++ {
			v[i] = fill ^ byte(o.byte())
		}
		for f := d; f < len(v); f *= 2 {
			copy(v[f:], v[:f])
		}
		lit, flat = append(lit, v...), append(flat, v...)
		lit = p.Fold(lit, len(lit)-len(v), len(lit))
	}
	return p.Seal(lit), lit, flat
}

// readBackBudget bounds the bytes of read-backs driveFileOps keeps to
// re-check: the device's size, so the newest reads of every file stay.
const readBackBudget = 4 << 20

// driveFileOps runs the operations ops encodes against a file system over
// a 4 MiB device and against flatFiles, comparing the two after every
// step: contents, sizes, device-acknowledged images, free space, errors.
// Buffers go both ways without copies, so it also checks that none
// changes afterwards: neither those handed in nor those read back.
func driveFileOps(t *testing.T, ops []byte) {
	const ps, devPages = 4096, 1024
	dev := &fakeDev{pageSize: ps, pages: devPages}
	fsys := New(dev)
	model := map[string]*flatFile{}
	names := []string{"a", "b", "c"}
	o := &opStream{b: ops}

	// Every buffer handed over, with the checksum of its whole capacity:
	// the file system owns them now and must never write to them.
	type handed struct {
		buf []byte
		sum uint32
	}
	var given []handed
	give := func(b []byte) []byte {
		if cap(b) > 0 {
			given = append(given, handed{b[:cap(b)], crc32.ChecksumIEEE(b[:cap(b)])})
		}
		return b
	}
	// Read-backs may be views of the file system's extents, with the
	// checksum of their bytes: appends, replaces, removes and power cuts
	// after them must leave them as they were. The newest are kept, up to
	// readBackBudget bytes.
	var kept []handed
	keptBytes := 0
	keep := func(b []byte) []byte {
		if len(b) > 0 {
			kept = append(kept, handed{b, crc32.ChecksumIEEE(b)})
			for keptBytes += len(b); keptBytes > readBackBudget; kept = kept[1:] {
				keptBytes -= len(kept[0].buf)
			}
		}
		return b
	}
	pagesOf := func(size int) int { return max(1, (size+ps-1)/ps) }
	freePages := func() int {
		n := devPages
		for _, f := range model {
			n -= pagesOf(len(f.data))
		}
		return n
	}

	run(t, func(r *vclock.Runner) {
		step := 0
		fail := func(format string, args ...any) {
			t.Helper()
			t.Errorf("step %d: %s", step, fmt.Sprintf(format, args...))
		}
		// check compares one file, or its absence, with the model.
		check := func(name string) {
			t.Helper()
			f, ok := model[name]
			if fsys.Exists(name) != ok {
				fail("%s: exists %v, model %v", name, !ok, ok)
				return
			}
			if !ok {
				return
			}
			if size, err := fsys.Size(name); err != nil || size != len(f.data) {
				fail("%s: size %d (%v), model %d", name, size, err, len(f.data))
			}
			if got, err := fsys.ReadFile(r, name); err != nil || !bytes.Equal(keep(got), f.data) {
				fail("%s: ReadFile returned %d bytes (%v) that differ from the model's %d", name, len(got), err, len(f.data))
			}
		}
		// checkMedia compares the device-acknowledged image.
		checkMedia := func(name string) {
			t.Helper()
			f := model[name]
			got, err := fsys.MediaRead(name)
			keep(got)
			if f == nil || !f.durable {
				if err == nil {
					fail("%s: MediaRead of a file never acknowledged returned %d bytes", name, len(got))
				}
			} else if err != nil || !bytes.Equal(got, f.stable) {
				fail("%s: MediaRead returned %d bytes (%v), model %d", name, len(got), err, len(f.stable))
			}
		}
		for ; len(o.b) > 0 && !t.Failed(); step++ {
			name := names[o.byte()%len(names)]
			f := model[name]
			switch op := o.byte() % 16; {
			case op < 6: // append one to three chunks
				chunks := make([][]byte, 1+o.byte()%3)
				var joined []byte
				for i := range chunks {
					chunks[i] = give(o.chunk(byte(step)))
					joined = append(joined, chunks[i]...)
				}
				size := 0
				if f != nil {
					size = len(f.data)
				}
				need := 0
				if len(joined) > 0 {
					need = (size+len(joined)+ps-1)/ps - (size+ps-1)/ps
					if f != nil && size == 0 {
						need-- // an empty file's metadata page takes the first bytes
					}
				}
				err := fsys.Append(r, name, chunks...)
				switch {
				case need > freePages():
					if err == nil || !strings.Contains(err.Error(), "out of space") {
						fail("append of %d pages with %d free: %v", need, freePages(), err)
					}
				case len(joined) == 0:
					if err != nil {
						fail("empty append: %v", err)
					}
				default:
					if f == nil {
						f = &flatFile{}
						model[name] = f
					}
					f.data = append(f.data[:len(f.data):len(f.data)], joined...)
					if (err != nil) != dev.failWrites {
						fail("append: %v with failWrites=%v", err, dev.failWrites)
					}
					if err == nil {
						f.stable, f.durable, f.torn = f.data, true, false
					} else {
						f.torn = true
					}
				}
			case op < 8: // replace, by plain bytes or a folded image
				p, held, img := o.image(byte(step))
				give(held)
				err := fsys.WriteFile(r, name, p)
				room := freePages()
				if f != nil {
					room += pagesOf(len(f.data)) // the new image may take the old one's pages
				}
				if pagesOf(len(img)) > room {
					if err == nil || !strings.Contains(err.Error(), "out of space") {
						fail("replace by %d pages with room for %d: %v", pagesOf(len(img)), room, err)
					}
					break
				}
				nf := &flatFile{data: append([]byte(nil), img...)}
				if f != nil {
					nf.stable, nf.durable = f.stable, f.durable
				}
				model[name] = nf
				if (err != nil) != dev.failWrites {
					fail("replace: %v with failWrites=%v", err, dev.failWrites)
				}
				if err == nil {
					nf.stable, nf.durable = nf.data, true
				}
			case op < 11: // read a range: inside an extent, across several, out of bounds
				if f == nil {
					if _, err := fsys.ReadAt(r, name, 0, 0); err == nil {
						fail("read of a missing file succeeded")
					}
					break
				}
				off := (o.byte()<<16 | o.byte()<<8 | o.byte()) % (len(f.data) + 1)
				n := o.size()
				// Every other read is compaction's: the payload of the extent
				// holding the range, which the reader views or materialises;
				// a range across extents is refused.
				read := func() ([]byte, error) { return fsys.ReadAt(r, name, off, n) }
				if o.byte()%2 == 0 {
					read = func() ([]byte, error) {
						p, base, err := fsys.ReadExtentBackground(r, name, off, n)
						if exts := fsys.files[name].exts; err == nil && n > 0 && (base < 0 || off-base+n > p.Len()) {
							fail("extent read [%d,%d) returned a payload of %d bytes at %d", off, off+n, p.Len(), base)
						} else if i := sort.Search(len(exts), func(i int) bool { return exts[i].end > off }); n > 0 && off+n <= len(f.data) &&
							(err != nil) != (off+n > exts[i].end) {
							fail("extent read [%d,%d) across extents ending at %d: %v", off, off+n, exts[i].end, err)
						} else if err != nil && strings.Contains(err.Error(), "crosses extents") {
							return fsys.ReadAt(r, name, off, n)
						}
						if err != nil {
							return nil, err
						}
						return p.Read(off-base, n), nil
					}
				}
				got, err := read()
				if off+n > len(f.data) {
					if err == nil {
						fail("read [%d,%d) of %d bytes succeeded", off, off+n, len(f.data))
					}
					n = len(f.data) - off
					got, err = read()
				}
				if err != nil || !bytes.Equal(keep(got), f.data[off:off+n]) {
					fail("read [%d,%d) of %d bytes: %d bytes, %v", off, off+n, len(f.data), len(got), err)
				}
			case op < 12:
				checkMedia(name)
			case op < 13:
				dev.failWrites = !dev.failWrites
			case op < 14: // remove
				err := fsys.Remove(r, name)
				if (err == nil) != (f != nil) {
					fail("remove: %v, model has the file: %v", err, f != nil)
				}
				delete(model, name)
			default: // power cut
				fsys.Crash(faults.NewPlan(int64(o.byte())))
				if fsys.CachedPages() != 0 {
					fail("crash left %d pages resident", fsys.CachedPages())
				}
				for name, f := range model {
					if !f.durable {
						delete(model, name)
						continue
					}
					if !fsys.Exists(name) && pagesOf(len(f.stable)) > pagesOf(len(f.data)) {
						// Reverting a failed replace to a larger image the
						// device could no longer hold drops the file.
						delete(model, name)
						continue
					}
					// What survives is the acknowledged image and, after a
					// torn append, some of the tail with one bit flipped;
					// the plan chose how much, so take it from the file.
					got, err := fsys.MediaRead(name)
					if err != nil || len(got) < len(f.stable) || !bytes.Equal(keep(got)[:len(f.stable)], f.stable) {
						fail("%s: crash kept %d bytes (%v), not the %d acknowledged", name, len(got), err, len(f.stable))
						continue
					}
					if tail := got[len(f.stable):]; len(tail) > 0 {
						flipped := 0
						if f.torn && len(got) <= len(f.data) {
							for i, b := range tail {
								if x := b ^ f.data[len(f.stable)+i]; x != 0 {
									flipped += bits.OnesCount8(x)
								}
							}
						}
						if flipped != 1 {
							fail("%s: crash kept %d bytes past the acknowledged %d (torn=%v, %d written) with %d bits flipped, want a fragment of the tail with 1",
								name, len(tail), len(f.stable), f.torn, len(f.data), flipped)
						}
					}
					f.data, f.stable, f.torn = got, got, false
				}
				for _, name := range names {
					check(name)
				}
			}
			check(name)
			if got, want := fsys.FreeBytes(), int64(freePages())*ps; got != want {
				fail("free bytes %d, model %d", got, want)
			}
			for _, k := range kept {
				if crc32.ChecksumIEEE(k.buf) != k.sum {
					fail("%d bytes the file system returned changed afterwards", len(k.buf))
					break
				}
			}
		}
		for _, name := range names {
			check(name)
			checkMedia(name)
		}
		for i, g := range given {
			if crc32.ChecksumIEEE(g.buf) != g.sum {
				fail("buffer %d handed to the file system was written to afterwards", i)
			}
		}
	})
}

// fileOpsSeed is a stream of n random operation bytes.
func fileOpsSeed(seed int64, n int) []byte {
	ops := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

// TestFileOpsMatchFlatModel: seeded random sequences of appends (chunks
// of 1 B to 1 MiB, empty ones, slack under and over an eighth), replaces
// (by plain bytes or a folded image), reads inside and across extents
// (of bytes, or of an extent's payload), media reads, removes, injected write
// failures and power cuts leave the rope byte for byte where a flat slice
// with a durable image would be, and no buffer handed in or read back
// ever changes.
func TestFileOpsMatchFlatModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { driveFileOps(t, fileOpsSeed(seed, 1500)) })
	}
}

// FuzzFileOps is the same driver over fuzzed operation streams.
func FuzzFileOps(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(fileOpsSeed(seed, 200))
	}
	f.Fuzz(driveFileOps)
}

// TestAllocsAppendVolume: appended chunks become the file, so writing a
// log allocates bookkeeping only — page lists and the extent list — not
// the bytes again. A 12.8 MB log in 256 KiB chunks, the benchmark's WAL
// and value-log traffic, allocates under a twentieth of its size; the
// growing flat slice it replaced allocated several times it.
func TestAllocsAppendVolume(t *testing.T) {
	const chunk, n = 256 << 10, 50
	fsys := New(&fakeDev{pageSize: 4096, pages: 1 << 14})
	chunks := make([][]byte, n)
	for i := range chunks {
		chunks[i] = make([]byte, chunk)
	}
	run(t, func(r *vclock.Runner) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, c := range chunks {
			if err := fsys.Append(r, "log", c); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		got, limit := after.TotalAlloc-before.TotalAlloc, uint64(chunk*n/20)
		t.Logf("%d bytes allocated appending %d (%.4fx)", got, chunk*n, float64(got)/(chunk*n))
		if got > limit {
			t.Errorf("appending %d bytes allocated %d, want at most %d", chunk*n, got, limit)
		}
	})
}

// BenchmarkAppend appends 256 KiB chunks, the logs' write-back unit, to a
// file that is removed every 25 chunks, as a log segment is.
func BenchmarkAppend(b *testing.B) {
	const chunk, perLog = 256 << 10, 25
	fsys := New(&fakeDev{pageSize: 4096, pages: 1 << 14})
	b.ReportAllocs()
	b.SetBytes(chunk)
	c := vclock.New()
	c.Go("bench", func(r *vclock.Runner) {
		for i := 0; i < b.N; i++ {
			if i%perLog == 0 && i > 0 {
				if err := fsys.Remove(r, "log"); err != nil {
					b.Error(err)
					return
				}
			}
			b.StopTimer()
			buf := make([]byte, chunk) // the writer's buffer, handed over
			b.StartTimer()
			if err := fsys.Append(r, "log", buf); err != nil {
				b.Error(err)
				return
			}
		}
	})
	c.Wait()
}

// BenchmarkReadAt reads 4 KiB from inside one extent (a value-log or
// block read) and 2 MiB across eight (a segment scan).
func BenchmarkReadAt(b *testing.B) {
	const chunk, n = 256 << 10, 25
	fsys := New(&fakeDev{pageSize: 4096, pages: 1 << 14})
	for _, tc := range []struct {
		name   string
		length int
	}{{"4KiB-in-one-extent", 4 << 10}, {"2MiB-across-extents", 2 << 20}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(tc.length))
			c := vclock.New()
			c.Go("bench", func(r *vclock.Runner) {
				if !fsys.Exists("log") {
					for i := 0; i < n; i++ {
						if err := fsys.Append(r, "log", make([]byte, chunk)); err != nil {
							b.Error(err)
							return
						}
					}
				}
				rng := rand.New(rand.NewSource(1))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Page-aligned, so a 4 KiB read stays inside an extent.
					off := rng.Intn((chunk*n-tc.length)/4096+1) * 4096
					if _, err := fsys.ReadAt(r, "log", off, tc.length); err != nil {
						b.Error(err)
						return
					}
				}
			})
			c.Wait()
		})
	}
}

package fold

import (
	"bytes"
	"math/rand"
	"testing"
)

// raceEnabled is set by race_test.go when the race detector is on: its
// instrumentation allocates, so allocation counts mean nothing.
var raceEnabled bool

// stream decodes a test's input from bytes, so one driver serves the
// seeded test and the fuzz target. An exhausted stream reads as zeros.
type stream struct{ b []byte }

func (s *stream) byte() int {
	if len(s.b) == 0 {
		return 0
	}
	v := s.b[0]
	s.b = s.b[1:]
	return int(v)
}

// build decodes a payload from s the way the table builder makes one:
// records appended to a literal buffer, literal runs between values of up
// to 16 KiB that repeat a run of 1 to 80 bytes (some broken at the end),
// and the values of each "block" folded when it closes, so a fold moves
// the bytes after it. It returns the payload and its flat bytes.
func build(s *stream) (Payload, []byte) {
	var p Payload
	var lit, flat []byte
	var open [][2]int // the open block's values, as offsets in lit
	closeBlock := func() {
		cut := 0
		for _, v := range open {
			n := len(lit)
			lit = p.Fold(lit, v[0]-cut, v[1]-cut)
			cut += n - len(lit)
		}
		open = open[:0]
	}
	if s.byte()%2 == 0 {
		p.reserve(s.byte())
	}
	for len(s.b) > 0 && len(flat) < 1<<20 {
		switch s.byte() % 5 {
		case 0, 1: // literal bytes
			n := s.byte()
			for i := 0; i < n; i++ {
				b := byte(s.byte())
				lit, flat = append(lit, b), append(flat, b)
			}
		case 2, 3: // a value
			d := 1 + s.byte()%80
			v := make([]byte, (s.byte()<<8|s.byte())%(16<<10))
			for i := 0; i < min(d, len(v)); i++ {
				v[i] = byte(s.byte())
			}
			for f := d; f < len(v); f *= 2 {
				copy(v[f:], v[:f])
			}
			if len(v) > 0 && s.byte()%5 == 0 {
				v[len(v)-1]++
			}
			open = append(open, [2]int{len(lit), len(lit) + len(v)})
			lit, flat = append(lit, v...), append(flat, v...)
		default:
			closeBlock()
		}
	}
	closeBlock()
	return p.Seal(lit), flat
}

// drivePayload builds a payload from input and checks every way of
// reading it against the flat bytes: Len, View, Span, Fill and Read at
// offsets and lengths the input chooses plus every piece boundary, and
// the same after Tight.
func drivePayload(t *testing.T, input []byte) {
	s := &stream{input}
	p, flat := build(s)
	if p.Len() != len(flat) {
		t.Fatalf("Len %d, flat %d", p.Len(), len(flat))
	}
	if cap(p.pieces)-len(p.pieces) > len(p.pieces)/8 || (p.pieces != nil && len(p.pieces) == 0) {
		t.Fatalf("Seal left %d pieces' room for %d pieces", cap(p.pieces), len(p.pieces))
	}
	check := func(p Payload, off, n int) {
		t.Helper()
		want := flat[off : off+n]
		if v, ok := p.View(off, n); ok && (!bytes.Equal(v, want) || cap(v) != n) {
			t.Fatalf("View(%d, %d) = %d bytes (cap %d), differs from the flat bytes", off, n, len(v), cap(v))
		}
		if sp := p.Span(off); !bytes.Equal(sp, flat[off:off+len(sp)]) || cap(sp) != len(sp) {
			t.Fatalf("Span(%d) = %d bytes, differs from the flat bytes", off, len(sp))
		}
		got := make([]byte, n)
		p.Fill(got, off)
		if !bytes.Equal(got, want) {
			t.Fatalf("Fill at %d of %d bytes differs from the flat bytes", off, n)
		}
		if got := p.Read(off, n); !bytes.Equal(got, want) {
			t.Fatalf("Read(%d, %d) differs from the flat bytes", off, n)
		}
	}
	for _, q := range []Payload{p, p.Tight()} {
		check(q, 0, len(flat))
		for i := 0; i < 64 && len(flat) > 0; i++ {
			off := (s.byte()<<16 | s.byte()<<8 | s.byte()) % len(flat)
			check(q, off, (s.byte()<<8|s.byte())%(len(flat)-off+1))
		}
		for _, pc := range q.pieces {
			for _, off := range []int{pc.end - 1, pc.end} {
				if off >= 0 && off < len(flat) {
					check(q, off, min(len(flat)-off, 1+(off%200)))
				}
			}
		}
	}
	if q := p.Tight(); cap(q.lit)-len(q.lit) > len(q.lit)/8 || cap(q.pieces)-len(q.pieces) > len(q.pieces)/8 {
		t.Fatal("Tight left more than an eighth of slack")
	}
}

func payloadSeed(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestPayloadMatchesFlat runs the driver over seeded inputs, and checks
// that they fold: a payload that folded nothing would test little.
func TestPayloadMatchesFlat(t *testing.T) {
	folded := 0
	for seed := int64(1); seed <= 40; seed++ {
		input := payloadSeed(seed, 4000)
		drivePayload(t, input)
		if p, _ := build(&stream{input}); p.Folded() {
			folded++
		}
	}
	if folded < 20 {
		t.Errorf("%d of 40 seeds folded anything", folded)
	}
}

// FuzzPayload: on any input, random or periodic, View, Span, Fill and
// Read at any offset and length equal the flat bytes.
func FuzzPayload(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(payloadSeed(seed, 400))
	}
	f.Fuzz(drivePayload)
}

// TestPeriod: a value folds by its repeat, at most MaxPeriod bytes, and
// only from MinLen bytes on; one that breaks the repeat anywhere does
// not.
func TestPeriod(t *testing.T) {
	rep := func(unit string, n int) []byte { return bytes.Repeat([]byte(unit), n)[:n] }
	for _, tc := range []struct {
		v    []byte
		want int
	}{
		{rep("x", MinLen), 1},
		{rep("x", MinLen-1), 0},
		{rep("0123456789abcdef", 4096), 16},
		{rep("0123456789abcdef", 4000), 16},
		{rep(string(payloadSeed(2, MaxPeriod)), 4096), MaxPeriod},
		{rep(string(payloadSeed(2, MaxPeriod+1)), 4096), 0},
		{rep("aaaaaaaaaX", 4096), 0}, // period 10, but only the first candidate, 1, is tried
		{append(rep("0123456789abcdef", 4095), 'x'), 0},
		{payloadSeed(1, 4096), 0},
	} {
		if got := Period(tc.v); got != tc.want {
			t.Errorf("Period of %d bytes %.20q... = %d, want %d", len(tc.v), tc.v, got, tc.want)
		}
	}
}

// TestAllocsView: a view of a literal span allocates nothing, nor does
// filling a buffer the caller owns; reading a folded range allocates its
// buffer, once.
func TestAllocsView(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	var p Payload
	var lit []byte
	for i := 0; i < 100; i++ {
		lit = append(lit, "header-of-record"...)
		at := len(lit)
		lit = append(lit, bytes.Repeat([]byte("0123456789abcdef"), 256)...)
		lit = p.Fold(lit, at, len(lit))
	}
	p = p.Seal(lit)
	if !p.Folded() || len(p.Lit()) != 100*32 {
		t.Fatalf("%d literal bytes, want 100 records of 32", len(p.Lit()))
	}
	off := 0
	dst := make([]byte, 4096)
	for name, op := range map[string]func(){
		"View": func() {
			if _, ok := p.View(off*4112, 20); !ok {
				t.Fatal("a record's header and key are not literal")
			}
		},
		"Span": func() { _ = p.Span(off * 4112) },
		"Fill": func() { p.Fill(dst, off*4112+8) },
	} {
		if n := testing.AllocsPerRun(100, func() { off = (off + 7) % 100; op() }); n != 0 {
			t.Errorf("%v allocations per %s, want 0", n, name)
		}
	}
	if n := testing.AllocsPerRun(100, func() { off = (off + 7) % 100; _ = p.Read(off*4112, 4112) }); n != 1 {
		t.Errorf("%v allocations per materialised Read, want 1", n)
	}
}

// BenchmarkFill materialises a 2 MiB window of a table of 4 KiB values
// that fold, as compaction's readahead does.
func BenchmarkFill(b *testing.B) {
	var p Payload
	var lit []byte
	for i := 0; i < 1024; i++ {
		lit = append(lit, "header-and-key-of-record"...)
		at := len(lit)
		lit = append(lit, bytes.Repeat(payloadSeed(int64(i), 16), 256)...)
		lit = p.Fold(lit, at, len(lit))
	}
	p = p.Seal(lit)
	dst := make([]byte, 2<<20)
	b.SetBytes(int64(len(dst)))
	for i := 0; i < b.N; i++ {
		p.Fill(dst, 0)
	}
}

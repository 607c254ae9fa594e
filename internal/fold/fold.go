// Package fold is the simulator's stored payload: file and run bytes held
// as literal bytes plus (distance, length) back-references, so a long
// repeat inside a value costs its period once instead of once per byte.
//
// The payloads are built where stored bytes are written — an SST's data
// blocks as each closes, a Dev-LSM run's records as each is encoded — and
// read back either as a view (a range inside one literal span) or
// materialised into a buffer the reader owns. No byte a reader sees
// differs from the flat bytes, and nothing here knows the workload: a
// value folds only if it repeats its own first bytes to its end.
package fold

import "bytes"

const (
	// MinLen is the shortest value Fold folds: below it the two pieces
	// a fold records cost more than the bytes they save.
	MinLen = 1024
	// MaxPeriod bounds the repeat a value is folded by.
	MaxPeriod = 64
	// probe is how many leading bytes the period search matches.
	probe = 8
)

// piece is one run of a payload's bytes, ending at logical offset end: a
// literal span of lit starting at from, or, for from < 0, a back-reference
// to the bytes -from before it (periodic where the piece is longer than
// its distance).
type piece struct {
	end  int
	from int
}

// Payload is a byte string of length Len. Its pieces cover it from offset
// 0 in order; the bytes past the last piece are literal, the tail of lit,
// so a payload with no pieces is lit itself. cut is the number of bytes
// the back-references stand for: a tail byte at logical offset x is
// lit[x-cut].
//
// A payload is immutable once built: its views never change.
type Payload struct {
	lit    []byte
	pieces []piece
	cut    int
}

// Literal returns the payload of b's bytes, holding b itself.
func Literal(b []byte) Payload { return Payload{lit: b} }

// Len returns the payload's length in bytes.
func (p Payload) Len() int { return len(p.lit) + p.cut }

// Lit returns the literal bytes, in order: all of them when nothing is
// folded.
func (p Payload) Lit() []byte { return p.lit }

// Folded reports whether any bytes are back-references.
func (p Payload) Folded() bool { return len(p.pieces) > 0 }

// Period returns the distance d <= MaxPeriod at which v, of at least
// MinLen bytes, repeats its first d bytes to its end, or 0: one search for
// v's first bytes among its first MaxPeriod+probe, then one comparison of
// v with itself shifted by d.
func Period(v []byte) int {
	if len(v) < MinLen {
		return 0
	}
	i := bytes.Index(v[1:MaxPeriod+probe], v[:probe])
	if i < 0 {
		return 0
	}
	d := i + 1
	if !bytes.Equal(v[d:], v[:len(v)-d]) {
		return 0
	}
	return d
}

// Presize is a builder's estimate for a payload of about hint bytes of
// records like its first, of rec bytes with value v: if v folds, it makes
// room for two pieces a record, so the piece list is allocated once, and
// returns the literal bytes those records keep; else it returns 0.
func (p *Payload) Presize(hint, rec int, v []byte) int {
	d := Period(v)
	if d == 0 {
		return 0
	}
	n := hint/rec + 1
	p.reserve(2 * n)
	return n * (rec - len(v) + d)
}

// reserve makes room for n more pieces.
func (p *Payload) reserve(n int) {
	if cap(p.pieces)-len(p.pieces) < n {
		p.pieces = append(make([]piece, 0, len(p.pieces)+n), p.pieces...)
	}
}

// Logical returns the payload offset of lit[off], a byte at or past the
// last fold.
func (p *Payload) Logical(off int) int { return off + p.cut }

// Fold is the builder's step: lit is the literal bytes of the payload
// under construction (its own, then bytes the builder appended since its
// last fold), and lit[at:end], at or past the last fold, is one value. If
// the value repeats its first d bytes to its end (Period), Fold keeps
// those d bytes and records the rest as a back-reference, moving the
// bytes after the value down; it returns lit, shortened or not. The
// literal piece a fold records ends with those d bytes, so a
// back-reference's period always ends the literal piece before it.
func (p *Payload) Fold(lit []byte, at, end int) []byte {
	d := Period(lit[at:end])
	if d == 0 {
		return lit
	}
	open := 0 // where the literal span this fold closes starts in lit
	if n := len(p.pieces); n > 0 {
		open = p.pieces[n-1].end - p.cut
	}
	keep := at + d
	p.pieces = append(p.pieces, piece{keep + p.cut, open}, piece{end + p.cut, -d})
	p.cut += end - keep
	return lit[:keep+copy(lit[keep:], lit[end:])]
}

// Seal returns the built payload whose literal bytes are lit, its piece
// list tight (see Tight): a builder that presized for more folds than it
// made keeps none of the slack.
func (p Payload) Seal(lit []byte) Payload {
	p.lit = lit
	if p.pieces = tight(p.pieces); len(p.pieces) == 0 {
		p.pieces = nil
	}
	return p
}

// find returns the index of the piece holding offset off and the offset
// it starts at; len(p.pieces) for the literal tail.
func (p Payload) find(off int) (i, start int) {
	lo, hi := 0, len(p.pieces)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p.pieces[m].end > off {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo > 0 {
		start = p.pieces[lo-1].end
	}
	return lo, start
}

// Span returns the literal bytes from offset off to the end of the
// literal span that holds them, capacity clipped; it is empty where off
// lies in a back-reference.
func (p Payload) Span(off int) []byte {
	i, start := p.find(off)
	if i == len(p.pieces) {
		return p.lit[off-p.cut : len(p.lit) : len(p.lit)]
	}
	pc := p.pieces[i]
	if pc.from < 0 {
		return nil
	}
	end := pc.from + pc.end - start
	return p.lit[pc.from+off-start : end : end]
}

// View returns bytes [off, off+n) as a view of lit, capacity clipped, if
// they lie inside one literal span; ok is false otherwise.
func (p Payload) View(off, n int) (v []byte, ok bool) {
	if s := p.Span(off); len(s) >= n {
		return s[:n:n], true
	}
	return nil, false
}

// Read returns bytes [off, off+n): a view if they lie inside one literal
// span, else materialised into a fresh buffer.
func (p Payload) Read(off, n int) []byte {
	if v, ok := p.View(off, n); ok {
		return v
	}
	b := make([]byte, n)
	p.Fill(b, off)
	return b
}

// Fill materialises bytes [off, off+len(dst)) into dst, walking the
// pieces in order from the one holding off.
func (p Payload) Fill(dst []byte, off int) {
	i, start := p.find(off)
	for len(dst) > 0 {
		if i == len(p.pieces) {
			copy(dst, p.lit[off-p.cut:])
			return
		}
		pc := p.pieces[i]
		n := min(len(dst), pc.end-off)
		if pc.from >= 0 {
			copy(dst[:n], p.lit[pc.from+off-start:])
		} else {
			p.repeat(dst[:n], i, start, off)
		}
		dst, off, start, i = dst[n:], off+n, pc.end, i+1
	}
}

// repeat fills dst with the bytes from off of back-reference piece i,
// which starts at start: byte x of the piece is byte src + (x-start) mod
// d, where src = start-d. It fills one period, rotated to off, from the
// end of the literal piece before it (see Fold), then doubles what it has
// filled until dst is full.
func (p Payload) repeat(dst []byte, i, start, off int) {
	d := -p.pieces[i].from
	prevStart := 0
	if i > 1 {
		prevStart = p.pieces[i-2].end
	}
	end := p.pieces[i-1].from + start - prevStart // in lit, of the piece before
	b, phase := p.lit[end-d:end], (off-start)%d
	period := dst[:min(len(dst), d)]
	copy(period[copy(period, b[phase:]):], b)
	for f := d; f < len(dst); f *= 2 {
		copy(dst[f:], dst[:f])
	}
}

// Tight returns p holding no more memory than it uses: lit and the piece
// list are capacity clipped, so nothing that grows a slice of them can
// write into memory a builder still sees, and one with more than an
// eighth of slack — the short last output of a merge, built in buffers
// sized for a full table — is copied into one of its own size.
func (p Payload) Tight() Payload {
	p.lit = tight(p.lit)
	if p.pieces = tight(p.pieces); len(p.pieces) == 0 {
		p.pieces = nil
	}
	return p
}

func tight[T any](s []T) []T {
	if cap(s)-len(s) > len(s)/8 {
		return append(make([]T, 0, len(s)), s...)
	}
	return s[:len(s):len(s)]
}

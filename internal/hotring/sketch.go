package hotring

// sketchRows is the count-min sketch's depth: each key has one counter in
// each row, and its estimate is the least of them.
const sketchRows = 4

// sketchMinWidth is the narrowest row: sixteen 4-bit counters, one word.
const sketchMinWidth = 16

// sketchWidthPerEntry sizes the rows: each is a power of two at least this
// many times the most entries the shard has held. On the benchmark's
// ycsb_b_hot, half as wide costs 0.4 points of hit rate and twice as wide
// gains 0.02.
const sketchWidthPerEntry = 8

// sketchWindowPerEntry sets the aging window: after this many recorded
// Gets per entry the shard has held, every counter halves, so a key that
// was hot long ago must be read again to be admitted (TinyLFU's reset).
const sketchWindowPerEntry = 10

// sketch is a count-min sketch of a shard's recent Get frequencies, in
// 4-bit saturating counters packed sixteen to a word, row after row.
// Counters grow by conservative update: a Get raises only the key's
// counters that hold its current estimate. A key's counters sit at four
// independent 32-bit slices of its hash, modulo the width: two of the
// key's 64-bit hash above its low byte, which holds the shard and so is
// the same for every key of a shard, and the two halves of that hash mixed
// once more. Independent rows make a cold key share all four counters
// with a hot one at odds of one in width⁴.
type sketch struct {
	words   []uint64 // sketchRows rows of width counters
	mask    uint32   // width-1; width is a power of two
	peak    int64    // the most entries the shard has held
	sampled int64    // Gets recorded since the counters last halved
}

func newSketch() sketch {
	return sketch{words: make([]uint64, sketchRows*sketchMinWidth/16), mask: sketchMinWidth - 1}
}

// slots returns where key hash h's counters sit: word index and bit shift
// for each row.
func (k *sketch) slots(h uint64) (word [sketchRows]uint32, shift [sketchRows]uint32) {
	m := mix(h)
	g := [sketchRows]uint32{uint32(h >> 32), uint32(h >> 8), uint32(m), uint32(m >> 32)}
	width := k.mask + 1
	for r := range g {
		i := uint32(r)*width + g[r]&k.mask
		word[r], shift[r] = i/16, i%16*4
	}
	return word, shift
}

// estimate returns how often h's key was read within the window, at most
// 15; collisions can only raise it.
func (k *sketch) estimate(h uint64) uint64 {
	word, shift := k.slots(h)
	return k.least(&word, &shift)
}

// least is the smallest of the counters at word and shift.
func (k *sketch) least(word, shift *[sketchRows]uint32) uint64 {
	est := uint64(15)
	for r := range word {
		est = min(est, k.words[word[r]]>>shift[r]&15)
	}
	return est
}

// record counts one Get of h's key, and halves every counter once the
// window has passed.
func (k *sketch) record(h uint64) {
	word, shift := k.slots(h)
	if est := k.least(&word, &shift); est < 15 {
		for r := range word {
			if k.words[word[r]]>>shift[r]&15 == est {
				k.words[word[r]] += 1 << shift[r]
			}
		}
	}
	if k.sampled++; k.sampled >= sketchWindowPerEntry*k.peak {
		for i := range k.words {
			k.words[i] = k.words[i] >> 1 & 0x7777777777777777
		}
		k.sampled = 0
	}
}

// fit widens the rows once the shard holds more entries than ever before
// and they are narrower than sketchWidthPerEntry per entry. A row doubles
// by repeating itself: a key's counter at i in a row of width w moves to i
// or i+w, and both hold what i held, so no estimate changes.
func (k *sketch) fit(entries int64) {
	if entries <= k.peak {
		return
	}
	k.peak = entries
	for int64(k.mask+1) < sketchWidthPerEntry*entries {
		rowWords := len(k.words) / sketchRows
		grown := make([]uint64, 2*len(k.words))
		for r := 0; r < sketchRows; r++ {
			row := k.words[r*rowWords : (r+1)*rowWords]
			copy(grown[2*r*rowWords:], row)
			copy(grown[(2*r+1)*rowWords:], row)
		}
		k.words, k.mask = grown, 2*k.mask+1
	}
}

// reset zeroes every counter, keeping the width: the shard still holds as
// many entries when full.
func (k *sketch) reset() {
	clear(k.words)
	k.sampled = 0
}

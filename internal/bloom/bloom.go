// Package bloom implements the double-hashed Bloom filter RocksDB uses in
// its SST files (Kirsch–Mitzenmacher double hashing over a 32-bit base
// hash), so Main-LSM point reads skip SSTs that cannot contain a key.
package bloom

import "encoding/binary"

// Filter is an immutable encoded Bloom filter. The last byte stores the
// probe count, matching LevelDB/RocksDB's on-disk layout.
type Filter []byte

// BitsPerKey trades space for false-positive rate; 10 bits/key gives ~1%
// FPR and is RocksDB's default.
const DefaultBitsPerKey = 10

// Hash is the LevelDB bloom hash (a Murmur-like 32-bit hash) — all a
// filter needs to know of a key, so a table builder keeps four bytes per
// key instead of a copy of it.
func Hash(b []byte) uint32 {
	const (
		seed = 0xbc9f1d34
		m    = 0xc6a4a793
	)
	h := uint32(seed) ^ uint32(len(b))*m
	for len(b) >= 4 {
		h += binary.LittleEndian.Uint32(b)
		h *= m
		h ^= h >> 16
		b = b[4:]
	}
	switch len(b) {
	case 3:
		h += uint32(b[2]) << 16
		fallthrough
	case 2:
		h += uint32(b[1]) << 8
		fallthrough
	case 1:
		h += uint32(b[0])
		h *= m
		h ^= h >> 24
	}
	return h
}

// Build creates a filter over keys using bitsPerKey bits per key.
func Build(keys [][]byte, bitsPerKey int) Filter {
	hashes := make([]uint32, len(keys))
	for i, key := range keys {
		hashes[i] = Hash(key)
	}
	return BuildFromHashes(hashes, bitsPerKey)
}

// BuildFromHashes is Build over the keys' Hash values.
func BuildFromHashes(hashes []uint32, bitsPerKey int) Filter {
	if bitsPerKey < 1 {
		bitsPerKey = 1
	}
	// k = bitsPerKey * ln2, clamped to [1, 30] like LevelDB.
	k := uint32(float64(bitsPerKey) * 0.69)
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	bits := len(hashes) * bitsPerKey
	if bits < 64 {
		bits = 64
	}
	nBytes := (bits + 7) / 8
	bits = nBytes * 8
	buf := make([]byte, nBytes+1)
	buf[nBytes] = byte(k)
	for _, h := range hashes {
		delta := h>>17 | h<<15
		for i := uint32(0); i < k; i++ {
			pos := h % uint32(bits)
			buf[pos/8] |= 1 << (pos % 8)
			h += delta
		}
	}
	return Filter(buf)
}

// MayContain reports whether key may be in the set. False positives are
// possible; false negatives are not.
func (f Filter) MayContain(key []byte) bool {
	if len(f) < 2 {
		return false
	}
	k := uint32(f[len(f)-1])
	if k > 30 {
		// Reserved for future encodings: err on the side of a match.
		return true
	}
	bits := uint32((len(f) - 1) * 8)
	h := Hash(key)
	delta := h>>17 | h<<15
	for i := uint32(0); i < k; i++ {
		pos := h % bits
		if f[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}

// Package encoding provides the byte-level coding shared by the WAL, SST,
// and device KV layers: length-prefixed key/value records, fixed-width
// integer coding, CRC32C checksums, the checksummed frame the WAL, the
// value log and the RPC wire share, the FNV-1a key hash, and the
// db_bench-style key formatter.
package encoding

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strconv"
)

// ErrCorrupt is returned when a record fails structural or checksum
// validation.
var ErrCorrupt = errors.New("encoding: corrupt record")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of data, the checksum RocksDB uses for
// blocks and WAL records.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// ChecksumUpdate returns the CRC32C of the bytes crc covers followed by
// data: Checksum of a whole is ChecksumUpdate folded over its pieces from
// zero.
func ChecksumUpdate(crc uint32, data []byte) uint32 { return crc32.Update(crc, castagnoli, data) }

// FNV1a returns the 64-bit FNV-1a hash of b, as hash/fnv's New64a
// computes it. It is fixed, not seeded per process, so whatever it places
// lands in the same place every run and across restarts: a key's shard,
// a compound command's sub-command, a front-cache entry's ring.
func FNV1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// FrameHeader is the size of the header in front of every checksummed
// frame. The WAL's records, the value log's records and the RPC wire's
// messages are all framed the same way:
//
//	u32 len(payload) | u32 crc32c(payload) | payload
//
// both integers little-endian.
const FrameHeader = 8

// BeginFrame reserves a frame header at the end of dst. The caller
// appends the payload behind it and then calls SealFrame with the
// header's offset, len(dst) before the call.
func BeginFrame(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
}

// SealFrame fills in the header of the frame that begins at dst[start]
// and runs to the end of dst. It returns the payload as a
// capacity-clipped view of dst: nothing appended to it reaches past the
// frame.
func SealFrame(dst []byte, start int) (payload []byte) {
	payload = dst[start+FrameHeader : len(dst) : len(dst)]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], Checksum(payload))
	return payload
}

// FrameLen returns the size, header included, of the frame whose header
// begins b, as far as b tells: FrameHeader while b holds less than a
// header. The length is read, not checked; b may end before the frame
// does.
func FrameLen(b []byte) int64 {
	if len(b) < FrameHeader {
		return FrameHeader
	}
	return FrameHeader + int64(binary.LittleEndian.Uint32(b))
}

// NextFrame splits the frame at the front of b off the bytes behind it.
// ok is false, with b returned whole as rest, when b ends before the
// frame does or the payload fails its checksum: a reader keeps the
// longest prefix of checked frames and stops there. The payload is a
// capacity-clipped view of b.
func NextFrame(b []byte) (payload, rest []byte, ok bool) {
	n := FrameLen(b)
	if n > int64(len(b)) {
		return nil, b, false
	}
	payload = b[FrameHeader:n:n]
	if Checksum(payload) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, b, false
	}
	return payload, b[n:], true
}

// PutUvarint appends x to dst in unsigned varint form.
func PutUvarint(dst []byte, x uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], x)
	return append(dst, buf[:n]...)
}

// Uvarint decodes a uvarint from b, returning the value and the remaining
// bytes, or ErrCorrupt.
func Uvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, ErrCorrupt
	}
	return v, b[n:], nil
}

// PutU32 appends x little-endian.
func PutU32(dst []byte, x uint32) []byte {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], x)
	return append(dst, buf[:]...)
}

// U32 reads a little-endian uint32 from the front of b.
func U32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, ErrCorrupt
	}
	return binary.LittleEndian.Uint32(b), b[4:], nil
}

// PutU64 appends x little-endian.
func PutU64(dst []byte, x uint64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], x)
	return append(dst, buf[:]...)
}

// U64 reads a little-endian uint64 from the front of b.
func U64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, ErrCorrupt
	}
	return binary.LittleEndian.Uint64(b), b[8:], nil
}

// AppendRecord appends a length-prefixed (key, value) record:
//
//	uvarint(len(key)) uvarint(len(value)) key value
func AppendRecord(dst, key, value []byte) []byte {
	dst = PutUvarint(dst, uint64(len(key)))
	dst = PutUvarint(dst, uint64(len(value)))
	dst = append(dst, key...)
	dst = append(dst, value...)
	return dst
}

// DecodeRecord reads one record from the front of b, returning key, value
// and the remaining bytes. The key and the value are capacity-clipped
// views of b: nothing appended to one reaches the bytes behind it.
func DecodeRecord(b []byte) (key, value, rest []byte, err error) {
	klen, b, err := Uvarint(b)
	if err != nil {
		return nil, nil, nil, err
	}
	vlen, b, err := Uvarint(b)
	if err != nil {
		return nil, nil, nil, err
	}
	if klen > uint64(len(b)) || vlen > uint64(len(b))-klen { // klen+vlen can wrap
		return nil, nil, nil, ErrCorrupt
	}
	kv := klen + vlen
	return b[:klen:klen], b[klen:kv:kv], b[kv:], nil
}

// RecordSize returns the encoded size of a (key, value) record without
// materializing it.
func RecordSize(keyLen, valueLen int) int {
	return UvarintLen(uint64(keyLen)) + UvarintLen(uint64(valueLen)) + keyLen + valueLen
}

// UvarintLen returns the number of bytes PutUvarint writes for x.
func UvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// A ValuePointer locates one value-log record: the segment file it lives
// in, the byte offset of the record's frame, and the framed length
// (header + payload). It is the fixed-size stand-in the LSM stores for a
// separated value (WiscKey), so SSTs and the WAL carry 13 bytes per
// large value instead of the value itself.
type ValuePointer struct {
	Seg uint32 // value-log segment id
	Off uint32 // byte offset of the framed record within the segment
	Len uint32 // framed record length (8-byte header + payload)
}

// valuePtrMarker is the first byte of an encoded ValuePointer; decoding
// validates it so a raw user value misread as a pointer fails loudly.
const valuePtrMarker = 0xF7

// ValuePointerSize is the encoded size of a ValuePointer.
const ValuePointerSize = 13

// AppendValuePointer appends p's fixed-size encoding to dst.
func AppendValuePointer(dst []byte, p ValuePointer) []byte {
	dst = append(dst, valuePtrMarker)
	dst = PutU32(dst, p.Seg)
	dst = PutU32(dst, p.Off)
	dst = PutU32(dst, p.Len)
	return dst
}

// DecodeValuePointer parses a ValuePointer previously encoded with
// AppendValuePointer. It rejects wrong sizes and a missing marker byte.
func DecodeValuePointer(b []byte) (ValuePointer, error) {
	if len(b) != ValuePointerSize || b[0] != valuePtrMarker {
		return ValuePointer{}, ErrCorrupt
	}
	var p ValuePointer
	p.Seg, b, _ = U32(b[1:])
	p.Off, b, _ = U32(b)
	p.Len, _, _ = U32(b)
	return p, nil
}

// FormatKey appends a db_bench-style decimal key to dst: n zero-padded on
// the left to width bytes. An n with more than width digits is written in
// full, as fmt's "%0*d" would.
func FormatKey(dst []byte, n uint64, width int) []byte {
	var buf [20]byte // len(strconv.Itoa(math.MaxUint64))
	digits := strconv.AppendUint(buf[:0], n, 10)
	for i := len(digits); i < width; i++ {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}

// Key16 returns a 16-byte db_bench key for n (db_bench's default key
// format: zero-padded decimal).
func Key16(n uint64) []byte { return FormatKey(nil, n, 16) }

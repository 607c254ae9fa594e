package encoding

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// referenceFrames splits data into frames the long way, on hash/crc32
// directly: the payloads of its longest prefix of whole frames whose
// checksums match, and that prefix's length.
func referenceFrames(data []byte) (payloads [][]byte, valid int) {
	table := crc32.MakeTable(crc32.Castagnoli)
	for len(data)-valid >= 8 {
		length := binary.LittleEndian.Uint32(data[valid:])
		if uint64(len(data)-valid-8) < uint64(length) {
			break
		}
		payload := data[valid+8 : valid+8+int(length)]
		if crc32.Checksum(payload, table) != binary.LittleEndian.Uint32(data[valid+4:]) {
			break
		}
		payloads = append(payloads, payload)
		valid += 8 + int(length)
	}
	return payloads, valid
}

// appendFrame frames payload onto dst with BeginFrame and SealFrame.
func appendFrame(dst, payload []byte) (out, sealed []byte) {
	start := len(dst)
	dst = append(BeginFrame(dst), payload...)
	return dst, SealFrame(dst, start)
}

// FuzzFrame: NextFrame, applied until it stops, splits any bytes exactly
// as the reference framer does — the same payloads, then a stop at the
// end of the longest checked prefix — every payload is a capacity-clipped
// view, FrameLen agrees with each split, framing the payloads again gives
// the prefix back byte for byte, and nothing panics.
func FuzzFrame(f *testing.F) {
	var stream []byte
	for _, p := range []string{"", "x", "a longer payload, past a header's worth", "\x00\x00\x00\x00"} {
		stream, _ = appendFrame(stream, []byte(p))
	}
	f.Add(stream)
	f.Add(stream[:len(stream)-3])
	flipped := bytes.Clone(stream)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1}) // a length nothing backs
	f.Fuzz(func(t *testing.T, data []byte) {
		want, valid := referenceFrames(data)
		rest := data
		for i := 0; ; i++ {
			payload, next, ok := NextFrame(rest)
			if !ok {
				if len(next) != len(rest) || i != len(want) || len(data)-len(rest) != valid {
					t.Fatalf("stopped after %d frames and %d bytes, leaving %d; the reference keeps %d frames and %d bytes",
						i, len(data)-len(rest), len(next), len(want), valid)
				}
				break
			}
			if i >= len(want) || !bytes.Equal(payload, want[i]) {
				t.Fatalf("frame %d: NextFrame yields a payload the reference does not", i)
			}
			if cap(payload) != len(payload) {
				t.Fatalf("frame %d: payload len %d, cap %d", i, len(payload), cap(payload))
			}
			if n := FrameLen(rest); n != int64(len(rest)-len(next)) {
				t.Fatalf("frame %d: FrameLen %d, NextFrame took %d bytes", i, n, len(rest)-len(next))
			}
			rest = next
		}
		var again []byte
		for i, p := range want {
			var sealed []byte
			again, sealed = appendFrame(again, p)
			if !bytes.Equal(sealed, p) || cap(sealed) != len(sealed) {
				t.Fatalf("frame %d: SealFrame returns %d bytes (cap %d), not the %d-byte payload", i, len(sealed), cap(sealed), len(p))
			}
		}
		if !bytes.Equal(again, data[:valid]) {
			t.Fatalf("the payloads framed again differ from the %d-byte checked prefix", valid)
		}
	})
}

func TestFrameLenOfAShortHeader(t *testing.T) {
	for n := 0; n < FrameHeader; n++ {
		if got := FrameLen(make([]byte, n)); got != FrameHeader {
			t.Errorf("FrameLen of %d bytes = %d, want %d", n, got, FrameHeader)
		}
	}
	if got := FrameLen([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}); got != FrameHeader+1<<32-1 {
		t.Errorf("FrameLen of the largest length = %d", got)
	}
}

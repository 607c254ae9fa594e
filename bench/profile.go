package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// leafShares reads a runtime/pprof CPU profile and returns, per package
// group, the share of samples whose leaf function lives in that group.
// The standard library has no importable profile reader, so this decodes
// the four message types of the pprof wire format that the answer needs.
func leafShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	var (
		strs    []string
		funcs   = map[uint64]uint64{} // function id -> name string index
		locLeaf = map[uint64]uint64{} // location id -> leaf function id
		samples [][2]uint64           // leaf location id, sample count
	)
	err = eachField(raw, func(field int, v uint64, data []byte) error {
		switch field {
		case 2: // Sample
			var loc, count uint64
			var haveLoc, haveCount bool
			err := eachField(data, func(f int, v uint64, d []byte) error {
				vals := []uint64{v}
				if d != nil {
					vals = unpack(d)
				}
				if len(vals) == 0 {
					return nil
				}
				switch {
				case f == 1 && !haveLoc: // location_id: leaf first
					loc, haveLoc = vals[0], true
				case f == 2 && !haveCount: // value: [samples, cpu ns]
					count, haveCount = vals[0], true
				}
				return nil
			})
			if err != nil {
				return err
			}
			if haveLoc {
				samples = append(samples, [2]uint64{loc, count})
			}
		case 4: // Location
			var id, fn uint64
			var haveFn bool
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && !haveFn: // line[0] is the innermost (leaf) frame
					haveFn = true
					return eachField(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fn = lv
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLeaf[id] = fn
		case 5: // Function
			var id, name uint64
			err := eachField(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		name := ""
		if i := funcs[locLeaf[s[0]]]; i < uint64(len(strs)) {
			name = strs[i]
		}
		shares[packageGroup(name)] += float64(s[1])
		total += float64(s[1])
	}
	for g := range shares {
		shares[g] /= total
	}
	return shares, nil
}

// eachField walks one protobuf message. Varint fields arrive in v with
// data nil; length-delimited fields arrive in data.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return fmt.Errorf("cpu profile: truncated field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n == 0 {
				return fmt.Errorf("cpu profile: truncated varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("cpu profile: truncated bytes field")
			}
			data := b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
			if data == nil {
				data = []byte{}
			}
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("cpu profile: truncated fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("cpu profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("cpu profile: wire type %d", wire)
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// unpack decodes a packed repeated varint field.
func unpack(b []byte) []uint64 {
	var out []uint64
	for len(b) > 0 {
		v, n := uvarint(b)
		if n == 0 {
			return out
		}
		out = append(out, v)
		b = b[n:]
	}
	return out
}

// packageGroup maps a leaf function's qualified name to the host.share.*
// row it counts under.
func packageGroup(fn string) string {
	const mod = "kvaccel/"
	switch {
	case strings.HasPrefix(fn, mod+"bench.") || strings.HasPrefix(fn, "main."):
		return "workload"
	case strings.HasPrefix(fn, "kvaccel."):
		return "serving" // the root package: ShardedDB routing
	case !strings.HasPrefix(fn, mod):
		if strings.HasPrefix(fn, "runtime") || strings.HasPrefix(fn, "sync") || strings.HasPrefix(fn, "internal/") {
			return "runtime"
		}
		return "other"
	}
	pkg := strings.TrimPrefix(fn, mod+"internal/")
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	switch pkg {
	case "vclock", "lsm", "memtable", "sstable", "core", "devlsm", "workload":
		return pkg
	case "bloom":
		return "sstable"
	case "nvme", "ssd", "ftl", "nand", "pcie", "fs":
		return "device"
	case "rpc", "server":
		return "serving"
	}
	return "other"
}
